#include "qec/error_model.h"

#include <stdexcept>

namespace surfnet::qec {

NoiseProfile NoiseProfile::uniform(int num_qubits, double pauli,
                                   double erasure) {
  if (num_qubits < 0) throw std::invalid_argument("negative qubit count");
  return NoiseProfile(std::vector<QubitNoise>(
      static_cast<std::size_t>(num_qubits), QubitNoise{pauli, erasure}));
}

NoiseProfile NoiseProfile::core_support(const CoreSupportPartition& partition,
                                        double pauli, double erasure) {
  std::vector<QubitNoise> rates(partition.is_core.size());
  for (std::size_t q = 0; q < rates.size(); ++q) {
    const double scale = partition.is_core[q] ? 0.5 : 1.0;
    rates[q] = QubitNoise{pauli * scale, erasure * scale};
  }
  return NoiseProfile(std::move(rates));
}

void NoiseProfile::resize(int num_qubits) {
  if (num_qubits < 0) throw std::invalid_argument("negative qubit count");
  per_qubit_.resize(static_cast<std::size_t>(num_qubits));
}

std::vector<double> NoiseProfile::component_error_prob(
    PauliChannel channel) const {
  std::vector<double> prob;
  component_error_prob(channel, prob);
  return prob;
}

void NoiseProfile::component_error_prob(PauliChannel channel,
                                        std::vector<double>& out) const {
  out.resize(per_qubit_.size());
  for (std::size_t q = 0; q < per_qubit_.size(); ++q) {
    const double p = per_qubit_[q].pauli;
    // IndependentXZ flips each component with probability p; depolarizing
    // flips a given component for 2 of the 3 equally likely Paulis.
    out[q] = (channel == PauliChannel::IndependentXZ) ? p : 2.0 * p / 3.0;
  }
}

ErrorSample sample_errors(const NoiseProfile& profile, PauliChannel channel,
                          util::Rng& rng) {
  ErrorSample sample;
  sample_errors(profile, channel, rng, sample);
  return sample;
}

void sample_errors(const NoiseProfile& profile, PauliChannel channel,
                   util::Rng& rng, ErrorSample& sample) {
  const auto n = static_cast<std::size_t>(profile.num_qubits());
  sample.error.assign(n, Pauli::I);
  sample.erased.assign(n, 0);
  for (std::size_t q = 0; q < n; ++q) {
    const auto& noise = profile.qubit(static_cast<int>(q));
    if (rng.bernoulli(noise.erasure)) {
      sample.erased[q] = 1;
      sample.error[q] = static_cast<Pauli>(rng.below(4));
      continue;
    }
    if (channel == PauliChannel::IndependentXZ) {
      const bool x = rng.bernoulli(noise.pauli);
      const bool z = rng.bernoulli(noise.pauli);
      sample.error[q] = make_pauli(x, z);
    } else {
      if (rng.bernoulli(noise.pauli)) {
        // Uniform over {X, Y, Z}: enum values 1..3.
        sample.error[q] = static_cast<Pauli>(1 + rng.below(3));
      }
    }
  }
}

}  // namespace surfnet::qec
