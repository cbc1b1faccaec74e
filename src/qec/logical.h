#pragma once

// Logical-error verification (paper Sec. III-C / Fig. 3). A correction is
// *valid* when the residual error (actual flips XOR correction) has empty
// syndrome: the residual is then a union of cycles and boundary-to-boundary
// chains. The correction *fails logically* when a residual chain connects
// the two boundaries, which happens iff the residual crosses the lattice's
// logical cut an odd number of times.

#include <vector>

#include "qec/graph.h"
#include "qec/code_lattice.h"

namespace surfnet::qec {

/// Parity of `residual_edges` over the lattice's logical cut for `kind`.
/// Only meaningful when the residual has empty syndrome.
bool logical_flip(const CodeLattice& lattice, GraphKind kind,
                  const std::vector<char>& residual_edges);

/// Outcome of decoding one graph of one code.
struct DecodeOutcome {
  bool valid = false;    ///< correction matched the syndrome
  bool logical = false;  ///< residual implements a logical operator
  bool success() const { return valid && !logical; }
};

/// Convenience: evaluate a correction against the true flips.
DecodeOutcome evaluate_correction(const CodeLattice& lattice,
                                  GraphKind kind,
                                  const std::vector<char>& flips,
                                  const std::vector<char>& correction);

/// Reusable scratch for the allocation-free evaluate_correction overload.
struct EvalScratch {
  std::vector<char> residual;
  std::vector<char> syndrome;
};

/// Allocation-free variant for hot trial loops.
DecodeOutcome evaluate_correction(const CodeLattice& lattice, GraphKind kind,
                                  const std::vector<char>& flips,
                                  const std::vector<char>& correction,
                                  EvalScratch& scratch);

}  // namespace surfnet::qec
