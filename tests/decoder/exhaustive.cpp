#include "exhaustive.h"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "util/contracts.h"

namespace surfnet::decoder {

namespace {

constexpr std::size_t kMaxEdges = 20;

// Unconditional FATAL (not a catchable domain exception, and not compiled
// out in Release like the SURFNET_EXPECTS macro): past these caps the
// enumeration masks overflow and would return confidently wrong answers,
// so the only safe response is the contract trampoline — abort with a
// clear report, or ContractViolation under a test handler.
void require_enumerable(const qec::DecodingGraph& graph) {
  if (graph.num_edges() > kMaxEdges)
    util::contract_fail(
        "precondition", "graph.num_edges() <= kMaxEdges", __FILE__, __LINE__,
        "exhaustive ML enumerates 2^E configurations: %zu edges exceed the "
        "cap of %zu (use d <= 3, or tests/decoder/erasure_ml for exact ML on "
        "erasures at any distance)",
        graph.num_edges(), kMaxEdges);
  if (graph.num_real_vertices() > 63)
    util::contract_fail(
        "precondition", "graph.num_real_vertices() <= 63", __FILE__, __LINE__,
        "exhaustive ML packs syndromes into 64-bit masks: %d measurement "
        "vertices overflow them",
        graph.num_real_vertices());
}

}  // namespace

MlDecision decode_ml(const qec::CodeLattice& lattice, qec::GraphKind kind,
                     const DecodeInput& input) {
  const qec::DecodingGraph& graph = lattice.graph(kind);
  if (input.graph != &graph)
    throw std::invalid_argument("decode_ml: input graph is not the "
                                "lattice's graph of the given kind");
  require_enumerable(graph);
  const std::size_t num_edges = graph.num_edges();

  // Per-edge syndrome masks over the real (measured) vertices; boundary
  // endpoints absorb flips.
  std::vector<std::uint64_t> vertex_mask(num_edges, 0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const auto& edge = graph.edge(e);
    for (const int endpoint : {edge.u, edge.v})
      if (!graph.is_boundary(endpoint))
        vertex_mask[e] ^= std::uint64_t{1} << endpoint;
  }
  std::uint64_t target = 0;
  for (int v = 0; v < graph.num_real_vertices(); ++v)
    if (input.syndrome[static_cast<std::size_t>(v)])
      target |= std::uint64_t{1} << v;

  // Logical-cut parity decides the homology class (edge index ==
  // data-qubit index by the lattice contract).
  std::uint32_t cut_mask = 0;
  for (const int q : lattice.logical_cut(kind))
    cut_mask |= std::uint32_t{1} << q;

  const std::vector<double> prob = effective_error_prob(input);

  MlDecision out;
  double best_prob[2] = {-1.0, -1.0};
  std::uint32_t best_config[2] = {0, 0};
  const std::uint32_t num_configs = std::uint32_t{1}
                                    << static_cast<unsigned>(num_edges);
  for (std::uint32_t config = 0; config < num_configs; ++config) {
    std::uint64_t syndrome = 0;
    double p = 1.0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      if ((config >> e) & 1u) {
        syndrome ^= vertex_mask[e];
        p *= prob[e];
      } else {
        p *= 1.0 - prob[e];
      }
    }
    if (syndrome != target) continue;
    const int cls = static_cast<int>(std::popcount(config & cut_mask) & 1u);
    out.class_prob[cls] += p;
    if (p > best_prob[cls]) {
      best_prob[cls] = p;
      best_config[cls] = config;
    }
  }
  if (best_prob[0] < 0.0 && best_prob[1] < 0.0)
    throw std::logic_error(
        "decode_ml: no error configuration reproduces the syndrome");

  // ML over classes; a class with no representative cannot win (its total
  // is 0 and the other class has at least one configuration).
  out.chosen_class =
      out.class_prob[1] > out.class_prob[0] && best_prob[1] >= 0.0 ? 1 : 0;
  if (best_prob[out.chosen_class] < 0.0) out.chosen_class ^= 1;
  out.correction.assign(num_edges, 0);
  for (std::size_t e = 0; e < num_edges; ++e)
    if ((best_config[out.chosen_class] >> e) & 1u) out.correction[e] = 1;
  return out;
}

ExhaustiveMLDecoder::ExhaustiveMLDecoder(const qec::CodeLattice& lattice)
    : lattice_(&lattice) {
  require_enumerable(lattice.graph(qec::GraphKind::Z));
  require_enumerable(lattice.graph(qec::GraphKind::X));
}

std::vector<char> ExhaustiveMLDecoder::decode(const DecodeInput& input) const {
  const qec::GraphKind kind =
      input.graph == &lattice_->graph(qec::GraphKind::Z) ? qec::GraphKind::Z
                                                         : qec::GraphKind::X;
  if (input.graph != &lattice_->graph(kind))
    throw std::invalid_argument(
        "ExhaustiveMLDecoder: input graph belongs to a different lattice");
  return decode_ml(*lattice_, kind, input).correction;
}

}  // namespace surfnet::decoder
