// Tests of the deterministic fault-injection subsystem (netsim/faults.h):
// plan validation, scripted fault windows, stochastic processes, which
// plans count as empty, FaultPlan::fiber_noise, and seed replayability.

#include "netsim/faults.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "decoder/surfnet_decoder.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (same shape as failure_test.cpp).
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

Schedule one_request(int codes, bool dual, std::vector<int> ec = {}) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  s.ec_servers = std::move(ec);
  schedule.scheduled.push_back(s);
  return schedule;
}

std::string jsonl_of(const obs::TraceBuffer& buffer) {
  std::string out;
  for (const auto& event : buffer.events()) out += obs::to_jsonl(event) + "\n";
  return out;
}

bool same_records(const SimulationResult& a, const SimulationResult& b) {
  if (a.codes_scheduled != b.codes_scheduled ||
      a.codes_delivered != b.codes_delivered ||
      a.codes_succeeded != b.codes_succeeded ||
      a.total_latency != b.total_latency ||
      a.codes.size() != b.codes.size())
    return false;
  for (std::size_t i = 0; i < a.codes.size(); ++i)
    if (a.codes[i].request != b.codes[i].request ||
        a.codes[i].slots != b.codes[i].slots ||
        a.codes[i].corrections != b.codes[i].corrections ||
        a.codes[i].outcome != b.codes[i].outcome)
      return false;
  return true;
}

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  const auto topo = ring_topology();
  auto expect_rejected = [&](const FaultPlan& plan, const char* what) {
    EXPECT_THROW(FaultInjector(topo, plan), std::invalid_argument) << what;
  };

  FaultPlan rate;
  rate.stochastic.fiber_cut_rate = 1.5;
  expect_rejected(rate, "rate above 1");

  FaultPlan negative_rate;
  negative_rate.stochastic.node_outage_rate = -0.1;
  expect_rejected(negative_rate, "negative rate");

  FaultPlan duration;
  duration.stochastic.fiber_cut_rate = 0.1;
  duration.stochastic.fiber_cut_duration = 0;
  expect_rejected(duration, "non-positive duration");

  FaultPlan group;
  group.stochastic.correlated_cut_rate = 0.1;
  group.stochastic.correlated_group_size = 0;
  expect_rejected(group, "empty correlated group");

  FaultPlan factor;
  factor.stochastic.degradation_rate = 0.1;
  factor.stochastic.degradation_factor = 2.0;
  expect_rejected(factor, "degradation factor above 1");

  FaultPlan bad_fiber;
  bad_fiber.scripted.push_back({FaultKind::FiberCut, 0, 99, 5, 1.0});
  expect_rejected(bad_fiber, "fiber target out of range");

  FaultPlan bad_node;
  bad_node.scripted.push_back({FaultKind::NodeOutage, 0, -1, 5, 1.0});
  expect_rejected(bad_node, "node target out of range");

  FaultPlan bad_slot;
  bad_slot.scripted.push_back({FaultKind::FiberCut, -3, 0, 5, 1.0});
  expect_rejected(bad_slot, "negative slot");

  FaultPlan bad_magnitude;
  bad_magnitude.scripted.push_back(
      {FaultKind::EntanglementDegradation, 0, 0, 5, -0.5});
  expect_rejected(bad_magnitude, "magnitude out of range");
}

TEST(FaultPlanValidation, ErrorMessagesNameThePlan) {
  const auto topo = ring_topology();
  FaultPlan plan;
  plan.scripted.push_back({FaultKind::FiberCut, 0, 99, 5, 1.0});
  try {
    FaultInjector injector(topo, plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("FaultPlan"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("99"), std::string::npos);
  }
}

TEST(FaultInjection, EmptyPlanIsInert) {
  const auto topo = ring_topology();
  FaultInjector injector(topo, FaultPlan{});
  EXPECT_TRUE(injector.inert());
  util::Rng probe(1);
  injector.begin_slot(0, probe, obs::Sink{});
  // An inert injector consumes no random variates.
  EXPECT_EQ(probe(), util::Rng(1)());
  EXPECT_FALSE(injector.fiber_down(0, 0));
  EXPECT_FALSE(injector.node_down(0, 0));
  EXPECT_DOUBLE_EQ(injector.entanglement_factor(0, 0), 1.0);
}

TEST(FaultInjection, ScriptedWindowsAreHalfOpen) {
  const auto topo = ring_topology();
  FaultPlan plan;
  plan.scripted.push_back({FaultKind::FiberCut, 3, 1, 4, 1.0});
  plan.scripted.push_back({FaultKind::NodeOutage, 5, 2, 2, 1.0});
  plan.scripted.push_back({FaultKind::EntanglementDegradation, 2, 0, 3, 0.5});
  FaultInjector injector(topo, plan);
  EXPECT_FALSE(injector.inert());

  util::Rng rng(7);
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  for (int slot = 0; slot < 10; ++slot) {
    injector.begin_slot(slot, rng, sink);
    EXPECT_EQ(injector.fiber_down(1, slot), slot >= 3 && slot < 7)
        << "slot " << slot;
    EXPECT_EQ(injector.node_down(2, slot), slot >= 5 && slot < 7)
        << "slot " << slot;
    EXPECT_DOUBLE_EQ(injector.entanglement_factor(0, slot),
                     slot >= 2 && slot < 5 ? 0.5 : 1.0)
        << "slot " << slot;
  }
  EXPECT_EQ(metrics.counter("sim.fiber_failures"), 1);
  EXPECT_EQ(metrics.counter("sim.node_outages"), 1);
  EXPECT_EQ(metrics.counter("sim.degradations"), 1);
  // Scripted events consume no randomness.
  util::Rng fresh(7);
  EXPECT_EQ(rng(), fresh());
}

TEST(FaultInjection, CorrelatedCutTakesOutNeighboringFibers) {
  const auto topo = ring_topology();
  FaultPlan plan;
  plan.stochastic.correlated_cut_rate = 1.0;  // fire every slot
  plan.stochastic.correlated_group_size = 3;
  plan.stochastic.correlated_cut_duration = 10;
  FaultInjector injector(topo, plan);
  util::Rng rng(11);
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  injector.begin_slot(0, rng, sink);
  int down = 0;
  for (int e = 0; e < topo.num_fibers(); ++e)
    down += injector.fiber_down(e, 0) ? 1 : 0;
  EXPECT_EQ(down, 3);
  EXPECT_EQ(metrics.counter("sim.fiber_failures"), 3);
}

TEST(FaultInjection, NodeOutagesNeverHitUsers) {
  const auto topo = ring_topology();
  FaultPlan plan;
  plan.stochastic.node_outage_rate = 1.0;
  FaultInjector injector(topo, plan);
  util::Rng rng(13);
  injector.begin_slot(0, rng, obs::Sink{});
  EXPECT_FALSE(injector.node_down(0, 0));
  EXPECT_FALSE(injector.node_down(4, 0));
  EXPECT_TRUE(injector.node_down(1, 0));
  EXPECT_TRUE(injector.node_down(2, 0));
}

TEST(FaultInjection, ReplayIsDeterministic) {
  const auto topo = ring_topology();
  FaultPlan plan;
  plan.stochastic.fiber_cut_rate = 0.2;
  plan.stochastic.node_outage_rate = 0.1;
  plan.stochastic.degradation_rate = 0.3;

  auto run = [&]() {
    FaultInjector injector(topo, plan);
    util::Rng rng(99);
    obs::TraceBuffer trace;
    obs::Sink sink;
    sink.trace = &trace;
    for (int slot = 0; slot < 200; ++slot)
      injector.begin_slot(slot, rng, sink);
    return jsonl_of(trace);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjection, ScriptedWindowPastIntMaxLastsTheRun) {
  // Windows opened at slot 5 for INT_MAX slots would end past INT_MAX:
  // they saturate and hold for the rest of the run.
  const auto topo = ring_topology();
  constexpr int kForever = std::numeric_limits<int>::max();
  FaultPlan plan;
  plan.scripted.push_back({FaultKind::FiberCut, 5, 0, kForever, 1.0});
  plan.scripted.push_back({FaultKind::NodeOutage, 5, 2, kForever, 1.0});
  plan.scripted.push_back(
      {FaultKind::EntanglementDegradation, 5, 1, kForever, 0.5});
  FaultInjector injector(topo, plan);
  util::Rng rng(3);
  for (int slot = 0; slot <= 5; ++slot)
    injector.begin_slot(slot, rng, obs::Sink{});
  for (const int slot : {5, 6, kForever - 1}) {
    EXPECT_TRUE(injector.fiber_down(0, slot)) << "slot " << slot;
    EXPECT_TRUE(injector.node_down(2, slot)) << "slot " << slot;
    EXPECT_DOUBLE_EQ(injector.entanglement_factor(1, slot), 0.5)
        << "slot " << slot;
  }
}

TEST(FaultInjection, StochasticWindowPastIntMaxLastsTheRun) {
  // Stochastic cuts and outages opened after slot 0 for INT_MAX slots
  // saturate the same way; the trace reports INT_MAX as their end.
  const auto topo = ring_topology();
  constexpr int kForever = std::numeric_limits<int>::max();
  FaultPlan plan;
  plan.stochastic.fiber_cut_rate = 0.2;
  plan.stochastic.fiber_cut_duration = kForever;
  plan.stochastic.node_outage_rate = 0.2;
  plan.stochastic.node_outage_duration = kForever;
  FaultInjector injector(topo, plan);
  util::Rng rng(17);
  obs::TraceBuffer trace;
  obs::Sink sink;
  sink.trace = &trace;
  for (int slot = 0; slot < 40; ++slot) injector.begin_slot(slot, rng, sink);
  int late = 0;
  for (const auto& event : trace.events()) {
    const bool cut = event.kind == obs::EventKind::FiberDown;
    if (!cut && event.kind != obs::EventKind::NodeDown) continue;
    EXPECT_EQ(event.b, kForever) << "until_slot of " << obs::to_jsonl(event);
    const bool down = cut ? injector.fiber_down(event.a, kForever - 1)
                          : injector.node_down(event.a, kForever - 1);
    EXPECT_TRUE(down) << obs::to_jsonl(event);
    if (event.slot >= 1) ++late;
  }
  EXPECT_GT(late, 0) << "no fault opened after slot 0";
}

TEST(FaultPlanTest, DefaultPlanIsEmpty) {
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_FALSE(StochasticFaults{}.any());
  // A zero rate disables a process, so zero-rate fiber noise is no plan.
  EXPECT_TRUE(FaultPlan::fiber_noise(0.0, 40).empty());
  EXPECT_FALSE(FaultPlan::fiber_noise(0.01, 40).empty());
}

TEST(FaultPlanTest, EveryProcessMakesThePlanNonEmpty) {
  // Each process armed alone is a plan: empty() must see every one of
  // them, or the simulator would run the plan as fault-free.
  struct Arm {
    const char* name;
    bool degrades;
    void (*apply)(FaultPlan&);
  };
  const Arm arms[] = {
      {"fiber_cut", false,
       [](FaultPlan& p) { p.stochastic.fiber_cut_rate = 0.01; }},
      {"correlated_cut", false,
       [](FaultPlan& p) { p.stochastic.correlated_cut_rate = 0.01; }},
      {"node_outage", false,
       [](FaultPlan& p) { p.stochastic.node_outage_rate = 0.01; }},
      {"degradation", true,
       [](FaultPlan& p) { p.stochastic.degradation_rate = 0.01; }},
      {"scripted_outage", false,
       [](FaultPlan& p) {
         p.scripted.push_back({FaultKind::NodeOutage, 7, 1, 4, 1.0});
       }},
      {"scripted_degradation", true,
       [](FaultPlan& p) {
         p.scripted.push_back(
             {FaultKind::EntanglementDegradation, 7, 2, 4, 0.5});
       }},
  };
  const auto topo = ring_topology();
  for (const Arm& arm : arms) {
    FaultPlan plan;
    arm.apply(plan);
    EXPECT_FALSE(plan.empty()) << arm.name;
    const FaultInjector injector(topo, plan);
    EXPECT_FALSE(injector.inert()) << arm.name;
    EXPECT_EQ(injector.degradations_possible(), arm.degrades) << arm.name;
  }
}

TEST(FaultPlanTest, FiberNoiseIsTheIndependentCutProcessAlone) {
  // FaultPlan::fiber_noise (the paper's Sec. V-B failure model) arms the
  // per-fiber cut process and nothing else, so a run under it replays
  // bitwise like a plan with those two fields set by hand.
  const FaultPlan noise = FaultPlan::fiber_noise(0.05, 40);
  EXPECT_TRUE(noise.scripted.empty());
  EXPECT_DOUBLE_EQ(noise.stochastic.fiber_cut_rate, 0.05);
  EXPECT_EQ(noise.stochastic.fiber_cut_duration, 40);
  EXPECT_DOUBLE_EQ(noise.stochastic.correlated_cut_rate, 0.0);
  EXPECT_DOUBLE_EQ(noise.stochastic.node_outage_rate, 0.0);
  EXPECT_DOUBLE_EQ(noise.stochastic.degradation_rate, 0.0);

  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams planned;
  planned.faults = noise;
  planned.max_slots = 4000;
  SimulationParams by_hand;
  by_hand.faults.stochastic.fiber_cut_rate = 0.05;
  by_hand.faults.stochastic.fiber_cut_duration = 40;
  by_hand.max_slots = 4000;

  obs::TraceBuffer trace_a, trace_b;
  obs::MetricsRegistry metrics_a, metrics_b;
  planned.sink = obs::Sink{&metrics_a, &trace_a};
  by_hand.sink = obs::Sink{&metrics_b, &trace_b};

  util::Rng rng_a(21), rng_b(21);
  const auto a = simulate_surfnet(topo, one_request(10, true), planned, dec,
                                  rng_a);
  const auto b = simulate_surfnet(topo, one_request(10, true), by_hand, dec,
                                  rng_b);
  EXPECT_TRUE(same_records(a, b));
  EXPECT_EQ(jsonl_of(trace_a), jsonl_of(trace_b));
  EXPECT_GT(metrics_a.counter("sim.fiber_failures"), 0);
  EXPECT_EQ(metrics_a.counter("sim.fiber_failures"),
            metrics_b.counter("sim.fiber_failures"));
  // The RNG streams stay in lockstep past the run.
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(FaultSimulation, ScriptedOutageBlocksAndHeals) {
  // Cut the only server's fibers forever on a path with no alternative:
  // nothing is delivered. Heal before the end: everything is delivered.
  std::vector<Node> nodes(3);
  nodes[1] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, 0.95, 50}, {1, 2, 0.95, 50}};
  const Topology topo(std::move(nodes), std::move(fibers));

  Schedule schedule;
  schedule.requested_codes = 1;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = 1;
  s.support_path = {0, 1, 2};
  s.core_path = {0, 1, 2};
  schedule.scheduled.push_back(s);

  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.max_slots = 200;
  params.faults.scripted.push_back({FaultKind::NodeOutage, 0, 1, 50, 1.0});

  util::Rng rng(5);
  const auto result = simulate_surfnet(topo, schedule, params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 1);
  // The outage of the only switch delays delivery past its window.
  ASSERT_EQ(result.codes.size(), 1u);
  EXPECT_GE(result.codes[0].slots, 50);
}

TEST(FaultSimulation, DegradationStarvesTheCoreChannel) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;

  SimulationParams degraded;
  degraded.max_slots = 2000;
  degraded.entanglement_rate = 1.0;
  for (int e = 0; e < topo.num_fibers(); ++e)
    degraded.faults.scripted.push_back(
        {FaultKind::EntanglementDegradation, 0, e, 300, 0.0});
  SimulationParams healthy;
  healthy.max_slots = 2000;
  healthy.entanglement_rate = 1.0;

  util::Rng rng_a(41), rng_b(41);
  const auto starved =
      simulate_surfnet(topo, one_request(1, true), degraded, dec, rng_a);
  const auto normal =
      simulate_surfnet(topo, one_request(1, true), healthy, dec, rng_b);
  ASSERT_EQ(starved.codes_delivered, 1);
  ASSERT_EQ(normal.codes_delivered, 1);
  // Zero pair generation for 300 slots pins the Core part in place.
  EXPECT_GT(starved.codes[0].slots, normal.codes[0].slots + 200);
}

}  // namespace
}  // namespace surfnet::netsim
