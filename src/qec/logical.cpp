#include "qec/logical.h"

#include <stdexcept>

#include "qec/syndrome.h"

namespace surfnet::qec {

bool logical_flip(const CodeLattice& lattice, GraphKind kind,
                  const std::vector<char>& residual_edges) {
  const DecodingGraph& graph = lattice.graph(kind);
  if (residual_edges.size() != graph.num_edges())
    throw std::invalid_argument("logical_flip: size mismatch");
  // Edge index equals data-qubit index by construction; assert via lookup.
  bool parity = false;
  for (int q : lattice.logical_cut(kind))
    parity ^= (residual_edges[static_cast<std::size_t>(q)] != 0);
  return parity;
}

DecodeOutcome evaluate_correction(const CodeLattice& lattice,
                                  GraphKind kind,
                                  const std::vector<char>& flips,
                                  const std::vector<char>& correction) {
  EvalScratch scratch;
  return evaluate_correction(lattice, kind, flips, correction, scratch);
}

DecodeOutcome evaluate_correction(const CodeLattice& lattice, GraphKind kind,
                                  const std::vector<char>& flips,
                                  const std::vector<char>& correction,
                                  EvalScratch& scratch) {
  if (flips.size() != correction.size())
    throw std::invalid_argument("evaluate_correction: size mismatch");
  const DecodingGraph& graph = lattice.graph(kind);
  scratch.residual.resize(flips.size());
  for (std::size_t e = 0; e < flips.size(); ++e)
    scratch.residual[e] = static_cast<char>((flips[e] ^ correction[e]) & 1);
  syndrome_bitmap(graph, scratch.residual, scratch.syndrome);
  DecodeOutcome outcome;
  outcome.valid = true;
  for (char bit : scratch.syndrome)
    if (bit) {
      outcome.valid = false;
      break;
    }
  if (outcome.valid)
    outcome.logical = logical_flip(lattice, kind, scratch.residual);
  return outcome;
}

}  // namespace surfnet::qec
