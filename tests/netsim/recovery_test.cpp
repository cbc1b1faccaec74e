// Tests of the recovery layer (netsim/recovery.h): local-reroute splicing
// over live fibers, the structural reroute validator, and the
// simulator-level hold / reroute / per-code-budget semantics.

#include "netsim/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/faults.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// Same ring as failure_test.cpp: user(0) - sw(1) - server(2) - sw(3) -
/// user(4), plus bypass sw(5) between 1 and 3. Fibers in declaration
/// order: 0={0,1} 1={1,2} 2={2,3} 3={3,4} 4={1,5} 5={5,3}.
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

Schedule one_request(int codes, bool dual) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  schedule.scheduled.push_back(s);
  return schedule;
}

/// Injector with the given fibers scripted down for the whole test window.
FaultInjector cut_injector(const Topology& topo, std::vector<int> fibers,
                           int duration = 1000) {
  FaultPlan plan;
  for (const int e : fibers)
    plan.scripted.push_back({FaultKind::FiberCut, 0, e, duration, 1.0});
  FaultInjector injector(topo, plan);
  util::Rng rng(1);
  injector.begin_slot(0, rng, obs::Sink{});
  return injector;
}

TEST(RecoveryPolicy, FactoriesMatchTheirDocumentedPostures) {
  const auto off = RecoveryPolicy::disabled();
  EXPECT_FALSE(off.local_reroute);
  EXPECT_EQ(off.code_timeout_slots, 0);

  const auto hot = RecoveryPolicy::aggressive();
  EXPECT_TRUE(hot.local_reroute);
  EXPECT_EQ(hot.code_timeout_slots, 1500);

  // The default policy: local reroutes, no per-code budget.
  const RecoveryPolicy standard;
  EXPECT_TRUE(standard.local_reroute);
  EXPECT_EQ(standard.code_timeout_slots, 0);
}

TEST(LocalReroute, SplicesADetourAroundTheCut) {
  const auto topo = ring_topology();
  const auto injector = cut_injector(topo, {1});  // {1,2} down
  std::vector<int> path{0, 1, 2, 3, 4};
  ASSERT_TRUE(local_reroute(topo, injector, 0, path, 1, 2));
  // Detour 1 -> 5 -> 3 -> 2, then the untouched tail 3, 4.
  EXPECT_EQ(path, (std::vector<int>{0, 1, 5, 3, 2, 3, 4}));
}

TEST(LocalReroute, LeavesThePathUntouchedWhenIsolated) {
  const auto topo = ring_topology();
  // Node 1 keeps only its user-facing fiber: no live detour to 2 exists
  // (interior detour nodes must be switches/servers, not user 0).
  const auto injector = cut_injector(topo, {1, 4});
  std::vector<int> path{0, 1, 2, 3, 4};
  EXPECT_FALSE(local_reroute(topo, injector, 0, path, 1, 2));
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3, 4}));
}

#if SURFNET_CHECKS

TEST(RerouteValidator, AcceptsSplicedRecoveryPaths) {
  const auto topo = ring_topology();
  const auto injector = cut_injector(topo, {1});
  std::vector<int> path{0, 1, 2, 3, 4};
  ASSERT_TRUE(local_reroute(topo, injector, 0, path, 1, 2));
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  EXPECT_NO_THROW(check_reroute_invariants(topo, path, 1, {2, 4}));
}

TEST(RerouteValidator, RejectsPathsMissingABarrier) {
  const auto topo = ring_topology();
  // Path that skips the scheduled EC server 2 entirely.
  const std::vector<int> path{0, 1, 5, 3, 4};
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  EXPECT_THROW(check_reroute_invariants(topo, path, 1, {2, 4}),
               util::ContractViolation);
}

TEST(RerouteValidator, RejectsUsersInsideTheRemainingStretch) {
  const auto topo = ring_topology();
  // User 0 sits strictly between pos and the destination.
  const std::vector<int> path{1, 0, 1, 2, 3, 4};
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  EXPECT_THROW(check_reroute_invariants(topo, path, 0, {2, 4}),
               util::ContractViolation);
}

#endif  // SURFNET_CHECKS

TEST(RecoverySimulation, DisabledPolicyMatchesRerouteSwitchBitwise) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams base;
  base.faults = FaultPlan::fiber_noise(0.04, 50);
  base.max_slots = 20000;

  SimulationParams legacy = base;
  legacy.recovery.local_reroute = false;
  SimulationParams policy = base;
  policy.recovery = RecoveryPolicy::disabled();

  util::Rng rng_a(22), rng_b(22);
  const auto a = simulate_surfnet(topo, one_request(30, true), legacy, dec,
                                  rng_a);
  const auto b = simulate_surfnet(topo, one_request(30, true), policy, dec,
                                  rng_b);
  EXPECT_EQ(a.codes_delivered, b.codes_delivered);
  EXPECT_EQ(a.codes_succeeded, b.codes_succeeded);
  EXPECT_DOUBLE_EQ(a.total_latency, b.total_latency);
  ASSERT_EQ(a.codes.size(), b.codes.size());
  for (std::size_t i = 0; i < a.codes.size(); ++i) {
    EXPECT_EQ(a.codes[i].slots, b.codes[i].slots);
    EXPECT_EQ(a.codes[i].outcome, b.codes[i].outcome);
  }
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(RecoverySimulation, PermanentCutNeedsLocalRecovery) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams base;
  base.max_slots = 1500;
  base.faults.scripted.push_back({FaultKind::FiberCut, 0, 1, 5000, 1.0});

  SimulationParams healing = base;  // default policy: local reroutes on
  SimulationParams holding = base;
  holding.recovery = RecoveryPolicy::disabled();

  util::Rng rng_a(31), rng_b(31);
  const auto rerouted =
      simulate_surfnet(topo, one_request(3, true), healing, dec, rng_a);
  const auto stuck =
      simulate_surfnet(topo, one_request(3, true), holding, dec, rng_b);
  EXPECT_EQ(rerouted.codes_delivered, 3);
  EXPECT_EQ(stuck.codes_delivered, 0);
}

TEST(RecoverySimulation, PerCodeBudgetAbandonsStarvedCodes) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.swap_success = 0.0;  // the Core channel can never move
  params.max_slots = 1000;
  params.recovery.code_timeout_slots = 40;
  obs::MetricsRegistry metrics;
  params.sink.metrics = &metrics;

  util::Rng rng(61);
  const auto result =
      simulate_surfnet(topo, one_request(3, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 0);
  ASSERT_EQ(result.codes.size(), 3u);
  for (const auto& record : result.codes) {
    EXPECT_EQ(record.outcome, CodeOutcome::TimedOut);
    EXPECT_EQ(record.slots, 40);  // censored at the per-code budget
  }
  EXPECT_EQ(metrics.counter("sim.timeouts"), 3);
}

TEST(RecoverySimulation, BudgetAppliesToPurificationRuns) {
  const auto topo = ring_topology();
  SimulationParams params;
  params.entanglement_rate = 0.0;  // pairs never arrive
  params.max_slots = 1000;
  params.recovery.code_timeout_slots = 25;

  util::Rng rng(67);
  const auto result =
      simulate_purification(topo, one_request(2, true), 1, params, rng);
  EXPECT_EQ(result.codes_delivered, 0);
  ASSERT_EQ(result.codes.size(), 2u);
  for (const auto& record : result.codes) {
    EXPECT_EQ(record.outcome, CodeOutcome::TimedOut);
    EXPECT_EQ(record.slots, 25);
  }
}

}  // namespace
}  // namespace surfnet::netsim
