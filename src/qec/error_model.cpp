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

std::vector<double> NoiseProfile::component_error_prob() const {
  std::vector<double> prob;
  component_error_prob(prob);
  return prob;
}

void NoiseProfile::component_error_prob(std::vector<double>& out) const {
  out.resize(per_qubit_.size());
  for (std::size_t q = 0; q < per_qubit_.size(); ++q)
    out[q] = per_qubit_[q].pauli;
}

ErrorSample sample_errors(const NoiseProfile& profile, util::Rng& rng) {
  ErrorSample sample;
  sample_errors(profile, rng, sample);
  return sample;
}

void sample_errors(const NoiseProfile& profile, util::Rng& rng,
                   ErrorSample& sample) {
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
    const bool x = rng.bernoulli(noise.pauli);
    const bool z = rng.bernoulli(noise.pauli);
    sample.error[q] = make_pauli(x, z);
  }
}

}  // namespace surfnet::qec
