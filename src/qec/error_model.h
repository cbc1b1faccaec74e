#pragma once

// Error model of SurfNet (paper Sec. IV): i.i.d. Pauli errors plus erasure
// errors, with per-qubit rates. Pauli noise of rate p flips a qubit's X and
// Z components independently, each with probability p (the channel of the
// Fig. 8 threshold study). Measurements are error-free and decoherence
// is handled by error-mitigation at nodes, so neither is modelled here.
//
// An erased data qubit is substituted by a maximally mixed state: it is
// re-initialized and subjected to a Pauli chosen uniformly from {I, X, Y, Z}
// (paper Sec. IV), so each error component is flipped with probability 1/2
// at an erasure — hence the decoders' estimated fidelity of 0.5 there.

#include <vector>

#include "qec/core_support.h"
#include "qec/lattice.h"
#include "qec/pauli.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::qec {

struct QubitNoise {
  double pauli = 0.0;    ///< Pauli noise rate p for this qubit
  double erasure = 0.0;  ///< erasure probability for this qubit
};

/// Per-data-qubit noise rates for one surface code.
class NoiseProfile {
 public:
  NoiseProfile() = default;
  explicit NoiseProfile(std::vector<QubitNoise> per_qubit)
      : per_qubit_(std::move(per_qubit)) {}

  /// Identical rates on every data qubit.
  static NoiseProfile uniform(int num_qubits, double pauli, double erasure);

  /// Paper Fig. 8 setup: Support qubits get (pauli, erasure) and Core
  /// qubits get both rates halved.
  static NoiseProfile core_support(const CoreSupportPartition& partition,
                                   double pauli, double erasure);

  int num_qubits() const { return static_cast<int>(per_qubit_.size()); }

  /// Resize to `num_qubits` qubits (added ones noiseless), keeping the
  /// storage: a profile reused across codes overwrites its rates in place.
  void resize(int num_qubits);
  const QubitNoise& qubit(int q) const {
    SURFNET_EXPECTS(q >= 0 && static_cast<std::size_t>(q) < per_qubit_.size());
    return per_qubit_[static_cast<std::size_t>(q)];
  }
  QubitNoise& qubit(int q) {
    SURFNET_EXPECTS(q >= 0 && static_cast<std::size_t>(q) < per_qubit_.size());
    return per_qubit_[static_cast<std::size_t>(q)];
  }

  /// Probability that one tracked error component (X-type or Z-type) is
  /// flipped by the *Pauli* noise alone (erasures excluded), per qubit.
  /// This is what decoders use as prior error probability 1 - rho.
  std::vector<double> component_error_prob() const;

  /// Allocation-free variant: writes into `out` (resized to the qubit
  /// count).
  void component_error_prob(std::vector<double>& out) const;

 private:
  std::vector<QubitNoise> per_qubit_;
};

/// One sampled error configuration on a surface code.
struct ErrorSample {
  std::vector<Pauli> error;  ///< per data qubit
  std::vector<char> erased;  ///< per data qubit (known erasure flags)
};

/// Draw an error configuration. Erasure is sampled first; an erased qubit's
/// error is uniform over {I, X, Y, Z} regardless of its Pauli rate.
ErrorSample sample_errors(const NoiseProfile& profile, util::Rng& rng);

/// Allocation-free variant: fills `out`, reusing its buffers. Draws the
/// same random-variate sequence as the allocating overload.
void sample_errors(const NoiseProfile& profile, util::Rng& rng,
                   ErrorSample& out);

}  // namespace surfnet::qec
