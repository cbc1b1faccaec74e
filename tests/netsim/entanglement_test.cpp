#include "netsim/entanglement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netsim/channel.h"
#include "netsim/faults.h"
#include "netsim/sim_internal.h"
#include "netsim/simulator.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// user(0) - sw(1) - sw(2) - user(3): three fibers holding at most 5, 2
/// and 7 pairs.
Topology capped_path() {
  std::vector<Node> nodes(4);
  nodes[1] = {NodeRole::Switch, 100};
  nodes[2] = {NodeRole::Switch, 100};
  return Topology(std::move(nodes),
                  {{0, 1, 0.95, 5}, {1, 2, 0.95, 2}, {2, 3, 0.95, 7}});
}

TEST(Purify, PaperFormula) {
  // rho' = r1 r2 / (r1 r2 + (1 - r1)(1 - r2))
  EXPECT_NEAR(purify(0.9, 0.9), 0.81 / (0.81 + 0.01), 1e-12);
  EXPECT_NEAR(purify(0.5, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(purify(1.0, 0.7), 1.0, 1e-12);
}

TEST(Purify, ImprovesAboveOneHalf) {
  for (double rho : {0.6, 0.75, 0.9, 0.99})
    EXPECT_GT(purify(rho, rho), rho);
}

TEST(Purify, DegradesBelowOneHalf) {
  // Below 1/2 the recurrence protocol makes pairs worse — the fixed points
  // are 0, 1/2 and 1.
  for (double rho : {0.2, 0.4, 0.49}) EXPECT_LT(purify(rho, rho), rho);
}

TEST(PurifiedFidelity, MonotoneInRounds) {
  double prev = 0.8;
  for (int n = 1; n <= 9; ++n) {
    const double cur = purified_fidelity(0.8, n);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  EXPECT_NEAR(purified_fidelity(0.8, 0), 0.8, 1e-12);
  // N = 9 on a decent pair approaches 1 (paper's Purification N=9).
  EXPECT_GT(purified_fidelity(0.8, 9), 0.999);
}

// The simulator's per-fiber pair sources (detail::EntanglementRates).

TEST(EntanglementRates, GenerationIsCappedAtFiberCapacity) {
  const auto topo = capped_path();
  SimulationParams params;
  params.entanglement_rate = 1.0;  // deterministic: one pair per slot
  const FaultInjector injector(topo, FaultPlan{});
  const detail::EntanglementRates rates(topo, params, injector);
  std::vector<int> pairs(3, 0);
  util::Rng rng(3);
  rates.advance(pairs, injector, 0, rng);
  EXPECT_EQ(pairs, (std::vector<int>{1, 1, 1}));
  for (int slot = 1; slot < 10; ++slot)
    rates.advance(pairs, injector, slot, rng);
  EXPECT_EQ(pairs, (std::vector<int>{5, 2, 7}));
  // Consumed pairs come back at the same rate.
  pairs[0] -= 3;
  rates.advance(pairs, injector, 10, rng);
  EXPECT_EQ(pairs, (std::vector<int>{3, 2, 7}));
  // A whole rate draws no random variates.
  EXPECT_EQ(rng(), util::Rng(3)());
}

TEST(EntanglementRates, RateZeroNeverGenerates) {
  const auto topo = capped_path();
  SimulationParams params;
  params.entanglement_rate = 0.0;
  const FaultInjector injector(topo, FaultPlan{});
  const detail::EntanglementRates rates(topo, params, injector);
  std::vector<int> pairs(3, 0);
  util::Rng rng(4);
  for (int slot = 0; slot < 50; ++slot)
    rates.advance(pairs, injector, slot, rng);
  EXPECT_EQ(pairs, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(rng(), util::Rng(4)());
}

TEST(EntanglementRates, FractionalRateDrawsOneBernoulliPerFiberInOrder) {
  const auto topo = capped_path();
  SimulationParams params;
  params.entanglement_rate = 1.5;
  const FaultInjector injector(topo, FaultPlan{});
  const detail::EntanglementRates rates(topo, params, injector);
  std::vector<int> pairs(3, 0);
  std::vector<int> expected(3, 0);
  const std::vector<int> caps{5, 2, 7};
  util::Rng rng(5), twin(5);
  for (int slot = 0; slot < 6; ++slot) {
    rates.advance(pairs, injector, slot, rng);
    for (std::size_t e = 0; e < expected.size(); ++e)
      expected[e] =
          std::min(caps[e], expected[e] + 1 + (twin.bernoulli(0.5) ? 1 : 0));
    EXPECT_EQ(pairs, expected) << "slot " << slot;
  }
  EXPECT_EQ(rng(), twin());
}

TEST(EntanglementRates, DegradedFiberGeneratesAtTheScaledRate) {
  const auto topo = capped_path();
  SimulationParams params;
  params.entanglement_rate = 2.0;
  FaultPlan plan;
  // Fiber 2 generates at half rate during slots [1, 4).
  plan.scripted.push_back({FaultKind::EntanglementDegradation, 1, 2, 3, 0.5});
  FaultInjector injector(topo, plan);
  const detail::EntanglementRates rates(topo, params, injector);
  ASSERT_TRUE(rates.degradable());
  std::vector<int> pairs(3, 0);
  util::Rng rng(6);
  std::vector<int> gains;
  for (int slot = 0; slot < 5; ++slot) {
    injector.begin_slot(slot, rng, obs::Sink{});
    const int before = pairs[2];
    pairs[0] = pairs[1] = 0;  // drain the other fibers every slot
    rates.advance(pairs, injector, slot, rng);
    EXPECT_EQ(pairs[0], 2) << "slot " << slot;
    EXPECT_EQ(pairs[1], 2) << "slot " << slot;
    gains.push_back(pairs[2] - before);
  }
  EXPECT_EQ(gains, (std::vector<int>{2, 1, 1, 1, 2}));
}

TEST(Channel, NoiseFidelityRoundTrip) {
  for (double gamma : {0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(fidelity_of_noise(noise_of_fidelity(gamma)), gamma, 1e-12);
  }
  EXPECT_DOUBLE_EQ(noise_of_fidelity(1.0), 0.0);
}

TEST(Channel, PathNoiseIsAdditive) {
  std::vector<Node> nodes(4);
  const Topology topo(std::move(nodes),
                      {{0, 1, 0.9, 1}, {1, 2, 0.8, 1}, {2, 3, 0.95, 1}});
  const double mu = path_noise(topo, {0, 1, 2, 3});
  EXPECT_NEAR(mu, noise_of_fidelity(0.9) + noise_of_fidelity(0.8) +
                      noise_of_fidelity(0.95),
              1e-12);
  EXPECT_NEAR(fidelity_of_noise(mu), 0.9 * 0.8 * 0.95, 1e-12);
  EXPECT_THROW(path_noise(topo, {0, 2}), std::invalid_argument);
}

TEST(Channel, ErasureRateCompounds) {
  EXPECT_DOUBLE_EQ(erasure_rate(0.1, 0), 0.0);
  EXPECT_NEAR(erasure_rate(0.1, 1), 0.1, 1e-12);
  EXPECT_NEAR(erasure_rate(0.1, 2), 0.19, 1e-12);
}

TEST(Channel, PauliRateOfNoise) {
  EXPECT_DOUBLE_EQ(pauli_rate_of_noise(0.0), 0.0);
  EXPECT_NEAR(pauli_rate_of_noise(noise_of_fidelity(0.9)), 0.1, 1e-12);
}

}  // namespace
}  // namespace surfnet::netsim
