// Tests of the recovery layer (netsim/recovery.h): backoff arithmetic,
// local-reroute splicing and full-re-route escalation over live fibers,
// the structural reroute validator, and the simulator-level retry /
// escalation / per-code-budget semantics.

#include "netsim/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/faults.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

TEST(RecoveryPolicy, BackoffDoublesUpToTheCap) {
  RecoveryPolicy policy;  // base 1, cap 16
  const int expected[] = {1, 1, 2, 4, 8, 16, 16, 16};
  for (int attempt = 0; attempt < 8; ++attempt)
    EXPECT_EQ(policy.backoff_slots(attempt), expected[attempt])
        << "attempt " << attempt;

  RecoveryPolicy capped;
  capped.backoff_base_slots = 3;
  capped.backoff_cap_slots = 10;
  EXPECT_EQ(capped.backoff_slots(1), 3);
  EXPECT_EQ(capped.backoff_slots(2), 6);
  EXPECT_EQ(capped.backoff_slots(3), 10);  // 12 clamped
  EXPECT_EQ(capped.backoff_slots(50), 10);
}

TEST(RecoveryPolicy, FactoriesMatchTheirDocumentedPostures) {
  const auto off = RecoveryPolicy::disabled();
  EXPECT_FALSE(off.local_reroute);
  EXPECT_EQ(off.max_swap_retries, 0);
  EXPECT_EQ(off.escalate_after_reroutes, 0);
  EXPECT_EQ(off.code_timeout_slots, 0);

  const auto hot = RecoveryPolicy::aggressive();
  EXPECT_TRUE(hot.local_reroute);
  EXPECT_EQ(hot.max_swap_retries, 4);
  EXPECT_EQ(hot.backoff_base_slots, 2);
  EXPECT_EQ(hot.backoff_cap_slots, 16);
  EXPECT_EQ(hot.escalate_after_reroutes, 2);
  EXPECT_EQ(hot.code_timeout_slots, 1500);

  // The default policy reproduces the pre-plan simulator behavior.
  const RecoveryPolicy legacy;
  EXPECT_TRUE(legacy.local_reroute);
  EXPECT_EQ(legacy.max_swap_retries, 0);
  EXPECT_EQ(legacy.escalate_after_reroutes, 0);
  EXPECT_EQ(legacy.code_timeout_slots, 0);
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

TEST(ReplanRoute, RebuildsTheRouteThroughAllWaypoints) {
  const auto topo = ring_topology();
  const auto injector = cut_injector(topo, {1});
  std::vector<int> path{0, 1, 2, 3, 4};
  ASSERT_TRUE(replan_route(topo, injector, 0, path, 1, {2, 4}));
  EXPECT_EQ(path, (std::vector<int>{0, 1, 5, 3, 2, 3, 4}));
}

TEST(ReplanRoute, FailsWhenAnyLegIsUnroutable) {
  const auto topo = ring_topology();
  // Leg 1->2 survives (direct fiber), but node 3 loses all fibers so no
  // leg can reach destination 4.
  const auto injector = cut_injector(topo, {2, 3, 5});
  std::vector<int> path{0, 1, 2, 3, 4};
  EXPECT_FALSE(replan_route(topo, injector, 0, path, 1, {2, 4}));
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(replan_route(topo, injector, 0, path, 1, {}));
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

TEST(RecoverySimulation, SwapRetriesBackOffExponentially) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.swap_success = 0.5;
  params.max_slots = 20000;
  params.recovery = RecoveryPolicy::aggressive();
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  params.sink = obs::Sink{&metrics, &trace};

  util::Rng rng(47);
  const auto result =
      simulate_surfnet(topo, one_request(10, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 10);
  EXPECT_GT(metrics.counter("sim.retries"), 0);

  std::int64_t retries = 0;
  for (const auto& event : trace.events()) {
    if (event.kind != obs::EventKind::Retry) continue;
    ++retries;
    EXPECT_GE(event.c, 1);  // attempt stays within the retry budget
    EXPECT_LE(event.c, params.recovery.max_swap_retries);
    EXPECT_EQ(event.d, params.recovery.backoff_slots(event.c));
  }
  EXPECT_EQ(retries, metrics.counter("sim.retries"));
}

TEST(RecoverySimulation, EscalationFiresAfterFailedLocalRecoveries) {
  // A pure line has no detour: every local recovery fails, so escalation
  // triggers and — with the whole remaining route equally dead — records
  // a "hold" (rerouted=false) decision until the fiber heals.
  std::vector<Node> nodes(3);
  nodes[1] = {NodeRole::Switch, 1000};
  Topology topo(std::move(nodes), {{0, 1, 0.95, 50}, {1, 2, 0.95, 50}});
  Schedule schedule;
  schedule.requested_codes = 1;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = 1;
  s.support_path = {0, 1, 2};
  schedule.scheduled.push_back(s);

  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.max_slots = 500;
  params.faults.scripted.push_back({FaultKind::FiberCut, 0, 0, 60, 1.0});
  params.recovery.escalate_after_reroutes = 1;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  params.sink = obs::Sink{&metrics, &trace};

  util::Rng rng(53);
  const auto result = simulate_surfnet(topo, schedule, params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 1);
  EXPECT_GT(metrics.counter("sim.escalations"), 0);
  bool saw_hold = false;
  for (const auto& event : trace.events())
    if (event.kind == obs::EventKind::Escalate && !event.flag)
      saw_hold = true;
  EXPECT_TRUE(saw_hold);
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
