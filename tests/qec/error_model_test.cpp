#include "qec/error_model.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace surfnet::qec {
namespace {

TEST(ErrorModel, UniformProfileRates) {
  const auto profile = NoiseProfile::uniform(10, 0.07, 0.15);
  ASSERT_EQ(profile.num_qubits(), 10);
  for (int q = 0; q < 10; ++q) {
    EXPECT_DOUBLE_EQ(profile.qubit(q).pauli, 0.07);
    EXPECT_DOUBLE_EQ(profile.qubit(q).erasure, 0.15);
  }
}

TEST(ErrorModel, CoreSupportHalvesCoreRates) {
  const SurfaceCodeLattice lattice(5);
  const auto part = make_core_support(lattice);
  const auto profile = NoiseProfile::core_support(part, 0.08, 0.16);
  for (int q = 0; q < lattice.num_data_qubits(); ++q) {
    const double scale = part.is_core[static_cast<std::size_t>(q)] ? 0.5 : 1.0;
    EXPECT_DOUBLE_EQ(profile.qubit(q).pauli, 0.08 * scale);
    EXPECT_DOUBLE_EQ(profile.qubit(q).erasure, 0.16 * scale);
  }
}

TEST(ErrorModel, ComponentPriorIndependentXZ) {
  const auto profile = NoiseProfile::uniform(4, 0.05, 0.0);
  const auto prior = profile.component_error_prob();
  for (double p : prior) EXPECT_DOUBLE_EQ(p, 0.05);
}

TEST(ErrorModel, SampledRatesMatchConfiguredRates) {
  const auto profile = NoiseProfile::uniform(1000, 0.10, 0.20);
  util::Rng rng(7);
  int pauli_flips = 0, erasures = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto sample = sample_errors(profile, rng);
    for (std::size_t q = 0; q < sample.error.size(); ++q) {
      if (sample.erased[q]) {
        ++erasures;
      } else if (has_x(sample.error[q])) {
        ++pauli_flips;
      }
    }
  }
  const double total = 1000.0 * trials;
  EXPECT_NEAR(erasures / total, 0.20, 0.01);
  // X-component rate among non-erased qubits is p = 0.10 of 0.8 of qubits.
  EXPECT_NEAR(pauli_flips / total, 0.10 * 0.80, 0.01);
}

TEST(ErrorModel, ErasedQubitsAreMaximallyMixed) {
  // Among erased qubits, the four Paulis should be roughly uniform.
  const auto profile = NoiseProfile::uniform(2000, 0.0, 1.0);
  util::Rng rng(9);
  const auto sample = sample_errors(profile, rng);
  int counts[4] = {0, 0, 0, 0};
  for (std::size_t q = 0; q < sample.error.size(); ++q) {
    ASSERT_TRUE(sample.erased[q]);
    ++counts[static_cast<int>(sample.error[q])];
  }
  for (int c : counts) EXPECT_NEAR(c / 2000.0, 0.25, 0.05);
}

TEST(ErrorModel, DeterministicUnderSameSeed) {
  const auto profile = NoiseProfile::uniform(50, 0.1, 0.1);
  util::Rng rng1(123), rng2(123);
  const auto s1 = sample_errors(profile, rng1);
  const auto s2 = sample_errors(profile, rng2);
  EXPECT_EQ(s1.error, s2.error);
  EXPECT_EQ(s1.erased, s2.erased);
}

}  // namespace
}  // namespace surfnet::qec
