#pragma once

// Exact maximum-likelihood decoder by exhaustive coset enumeration: the
// test oracle of exhaustive_test.cpp and erasure_ml_test.cpp, compiled
// only into those two test binaries.
//
// For small codes (d <= 3: 13 data qubits, 2^13 error configurations per
// decoding graph) the decoding problem can be solved exactly: enumerate
// every error configuration, keep the ones reproducing the observed
// syndrome, split them by homology class (the parity of their overlap with
// the lattice's logical cut), and pick the class with the larger total
// probability. That is maximum-likelihood decoding of the *class* —
// strictly optimal for the success metric used throughout this repo
// (evaluate_correction tests the class of error + correction, not the
// exact configuration). No approximate decoder can beat it on expected
// logical-error rate, which is what the differential tests assert against
// SurfNet/Union-Find/MWPM; on pure erasure noise the peeling decoder must
// *match* it exactly (Delfosse-Zemor: peeling is ML on erasures).
//
// The enumeration is exponential in the edge count, so graphs beyond 20
// edges (d <= 3 in practice) or 63 measurement vertices are rejected with
// an unconditional contract FATAL (util::contract_fail): the masks would
// overflow and silently return wrong answers, so even Release builds —
// where SURFNET_EXPECTS compiles out — abort with a clear report instead.
// Tests catch it as util::ContractViolation via ScopedContractHandler.
// For exact ML above d = 3 on the erasure channel use the ErasureML oracle
// (tests/decoder/erasure_ml.h).

#include "decoder/decoder.h"
#include "qec/code_lattice.h"

namespace surfnet::decoder {

/// Outcome of one exact ML decode.
struct MlDecision {
  /// Representative correction: the single most likely configuration of
  /// the winning class (its syndrome equals the input syndrome).
  std::vector<char> correction;
  /// Total probability of the syndrome-compatible configurations per
  /// homology class, indexed by logical-cut parity (0 = trivial class).
  double class_prob[2] = {0.0, 0.0};
  int chosen_class = 0;  ///< argmax of class_prob (ties pick class 0)
};

/// Exact ML decode of one graph of `lattice`. `input.graph` must be
/// lattice.graph(kind) (std::invalid_argument otherwise). A graph too
/// large to enumerate (> 20 edges or > 63 measurement vertices) is a
/// contract FATAL in every build type; std::logic_error when no
/// configuration reproduces the syndrome (impossible for valid syndromes).
MlDecision decode_ml(const qec::CodeLattice& lattice, qec::GraphKind kind,
                     const DecodeInput& input);

/// Decoder-interface adapter over decode_ml. The graph kind of each call
/// is resolved by comparing input.graph against the lattice's two graphs,
/// so the adapter slots into decode_sample unchanged.
class ExhaustiveMLDecoder final : public Decoder {
 public:
  /// The lattice is borrowed and must outlive the decoder. Contract FATAL
  /// when either decoding graph exceeds the enumeration caps.
  explicit ExhaustiveMLDecoder(const qec::CodeLattice& lattice);

  std::vector<char> decode(const DecodeInput& input) const override;
  std::string_view name() const override { return "ExhaustiveML"; }

 private:
  const qec::CodeLattice* lattice_;
};

}  // namespace surfnet::decoder
