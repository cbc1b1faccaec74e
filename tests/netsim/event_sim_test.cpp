// Differential tests for the event engine: simulate_surfnet, which skips
// idle slots and keeps lazy pools, must reproduce the every-slot oracle
// (detail::simulate_surfnet_every_slot) bitwise — SimulationResult and the
// RNG stream (verified by comparing draws *after* the runs) — plus unit
// tests for the deterministic event queue itself. A sink forces
// every-slot visiting, so the engine side of each differential runs
// unobserved; the golden traces in golden_trace_test.cpp pin the observed
// path. The heavy randomized matrix lives in tests/event_property_test.cpp
// (extended label).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/event_queue.h"
#include "netsim/sim_internal.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

// ---------------------------------------------------------------- queue --

TEST(EventQueue, PopsBySlotThenClassThenSequence) {
  EventQueue queue;
  queue.push(7, EventClass::CodeWake, 1);
  queue.push(3, EventClass::RetryTimer, 2);
  queue.push(3, EventClass::FaultOnset, 3);
  queue.push(7, EventClass::CodeWake, 4);   // same key as the first push
  queue.push(3, EventClass::FaultExpiry, 5);
  queue.push(1, EventClass::CodeWake, 6);

  std::vector<int> payloads;
  while (!queue.empty()) payloads.push_back(queue.pop().payload);
  // slot 1 first; slot 3 by class priority (onset < expiry < retry);
  // slot 7 ties broken by push order.
  EXPECT_EQ(payloads, (std::vector<int>{6, 3, 5, 2, 1, 4}));
}

TEST(EventQueue, SequenceIdsMakeEqualKeysFifo) {
  EventQueue queue;
  for (int i = 0; i < 100; ++i) queue.push(5, EventClass::CodeWake, i);
  for (int i = 0; i < 100; ++i) {
    const auto event = queue.pop();
    EXPECT_EQ(event.payload, i);
    EXPECT_EQ(event.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, TracksPeakAndPushCount) {
  EventQueue queue;
  queue.push(1, EventClass::CodeWake);
  queue.push(2, EventClass::CodeWake);
  queue.pop();
  queue.push(3, EventClass::CodeWake);
  EXPECT_EQ(queue.peak_size(), 2u);
  EXPECT_EQ(queue.pushed(), 3u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(EventEngine, NamesAndFallbacks) {
  EXPECT_EQ(to_string(EventClass::FaultOnset), "fault_onset");
  EXPECT_EQ(to_string(EventClass::EntanglementReady), "entanglement_ready");
  const decoder::SurfNetDecoder dec;
  EXPECT_EQ(make_simulator(NetworkDesign::SurfNet, dec)->name(), "surfnet");
  EXPECT_EQ(make_simulator(NetworkDesign::Raw, dec)->name(), "surfnet");
  // Purification has no event engine: it keeps its own slot loop.
  EXPECT_EQ(make_simulator(NetworkDesign::Purification2, dec)->name(),
            "purification");
}

// --------------------------------------------------- differential rigs --

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (the golden-trace fixture).
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

std::string dump(const SimulationResult& r) {
  std::ostringstream out;
  out << r.codes_scheduled << '/' << r.codes_delivered << '/'
      << r.codes_succeeded << '/' << r.total_latency << '\n';
  for (const auto& c : r.codes)
    out << c.request << ' ' << c.slots << ' ' << c.corrections << ' '
        << static_cast<int>(c.outcome) << '\n';
  return out.str();
}

struct RunOutput {
  std::string result;
  std::vector<std::uint64_t> rng_tail;  ///< draws after the run
};

RunOutput run(bool every_slot, const Topology& topo, const Schedule& schedule,
              const SimulationParams& params, std::uint64_t seed) {
  const decoder::SurfNetDecoder dec;
  util::Rng rng(seed);
  const auto result =
      every_slot ? detail::simulate_surfnet_every_slot(topo, schedule, params,
                                                       dec, rng)
                 : simulate_surfnet(topo, schedule, params, dec, rng);
  RunOutput out;
  out.result = dump(result);
  for (int i = 0; i < 4; ++i) out.rng_tail.push_back(rng());
  return out;
}

void expect_bitwise(const Topology& topo, const Schedule& schedule,
                    const SimulationParams& params, std::uint64_t seed,
                    const char* label) {
  const auto oracle = run(true, topo, schedule, params, seed);
  const auto engine = run(false, topo, schedule, params, seed);
  EXPECT_EQ(oracle.result, engine.result) << label << ": SimulationResult";
  EXPECT_EQ(oracle.rng_tail, engine.rng_tail) << label << ": RNG stream";
}

// ------------------------------------------------------- differentials --

TEST(EventEngineDifferential, GoldenFaultCampaignBitwise) {
  // The configuration pinned by golden/ring_faults.jsonl, unobserved:
  // scripted events of every kind (including a fractional-rate
  // degradation window: 3.0 * 0.3) plus a stochastic fiber-cut process,
  // which visits every slot over lazy pools.
  SimulationParams params;
  params.max_slots = 300;
  params.entanglement_rate = 3.0;
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 10, 0, 40, 0.3});
  params.faults.scripted.push_back({FaultKind::FiberCut, 25, 1, 30, 1.0});
  params.faults.scripted.push_back({FaultKind::DecodeStall, 40, -1, 10, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 60, 5, 20, 1.0});
  params.faults.stochastic.fiber_cut_rate = 0.02;
  params.faults.stochastic.fiber_cut_duration = 15;
  expect_bitwise(ring_topology(), one_request(6, true, {2}), params, 20240806,
                 "fault campaign");
}

TEST(EventEngineDifferential, GoldenRecoveryCampaignBitwise) {
  // The golden/ring_recovery.jsonl configuration, unobserved so that the
  // engine skips: permanent cut, flaky swaps, aggressive recovery,
  // per-code timeout budget.
  SimulationParams params;
  params.max_slots = 600;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 120;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 5000, 1.0});
  expect_bitwise(ring_topology(), one_request(4, true, {2}), params, 424242,
                 "recovery campaign");
}

TEST(EventEngineDifferential, SkipModeScriptedFaultsBitwise) {
  // Null sink + one request + scripted-only faults + integral base rate:
  // the configuration where the event engine actually skips slots. The
  // scripted set stresses every wake path — blocked support, broken core
  // segments, a fractional degradation window, a decode stall over the
  // barrier, and recovery escalation over a long gap.
  SimulationParams params;
  params.max_slots = 2000;
  params.entanglement_rate = 3.0;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 300;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 80, 1.0});
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 30, 2, 60, 0.5});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 100, 3, 40, 1.0});
  params.faults.scripted.push_back({FaultKind::DecodeStall, 150, -1, 25, 1.0});
  for (const bool dual : {true, false})
    for (const std::uint64_t seed : {7u, 99u, 20240808u})
      expect_bitwise(ring_topology(), one_request(5, dual, {2}), params, seed,
                     "skip mode");
}

TEST(EventEngineDifferential, QuiescentStarvedRunCensorsAtCapBitwise) {
  // Zero generation rate and no faults: the core channel can never jump,
  // the event queue drains to empty, and the engine must censor the
  // in-flight code at max_slots - 1 exactly like the oracle's 20000-slot
  // sweep — without visiting the dead slots.
  SimulationParams params;
  params.entanglement_rate = 0.0;
  params.recovery.code_timeout_slots = 0;  // no budget: runs to the cap
  expect_bitwise(ring_topology(), one_request(2, true, {2}), params, 11,
                 "starved run");
}

TEST(EventEngineDifferential, HeldWithoutRecoveryBitwise) {
  // local_reroute disabled: a blocked channel holds in place (inert) until
  // the window expires; wake-ups must come from the queued fault expiry.
  SimulationParams params;
  params.max_slots = 1500;
  params.entanglement_rate = 4.0;
  params.recovery.local_reroute = false;
  params.faults.scripted.push_back({FaultKind::FiberCut, 3, 0, 400, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 500, 2, 200, 1.0});
  expect_bitwise(ring_topology(), one_request(3, true, {2}), params, 5150,
                 "held code");
}

TEST(EventEngineDifferential, EverySlotModeAgreesThroughRunTrials) {
  // Facade-level check over a chaotic multi-request scenario. A sink
  // forces every trial into every-slot mode, so the observed batch runs
  // the oracle on one thread while the unobserved batch runs the engine
  // over lazy pools on four. Every aggregate must agree bitwise.
  auto params = core::make_scenario(core::FacilityLevel::Sufficient,
                                    core::ConnectionQuality::Poor);
  params.simulation.faults.stochastic.correlated_cut_rate = 0.05;
  params.simulation.faults.stochastic.node_outage_rate = 0.01;
  params.simulation.faults.stochastic.degradation_rate = 0.1;
  params.simulation.faults.stochastic.degradation_factor = 0.4;
  params.simulation.swap_success = 0.85;
  params.simulation.recovery = RecoveryPolicy::aggressive();

  obs::MetricsRegistry metrics;
  auto run = [&](bool observed, int threads) {
    core::RunOptions options;
    options.seed = 20240806;
    options.threads = threads;
    if (observed) options.sink.metrics = &metrics;
    const auto agg =
        core::run_trials(params, core::NetworkDesign::SurfNet, 8, options);
    std::vector<double> stats;
    for (const auto* stat : {&agg.fidelity, &agg.latency, &agg.throughput})
      stats.insert(stats.end(), {static_cast<double>(stat->count()),
                                 stat->mean(), stat->variance(), stat->min(),
                                 stat->max()});
    return stats;
  };
  const auto oracle = run(/*observed=*/true, 1);
  const auto engine = run(/*observed=*/false, 4);
  EXPECT_EQ(oracle, engine);
  // The comparison covers real work: codes were decoded under faults.
  EXPECT_GT(metrics.counter("sim.decodes"), 0);
  EXPECT_GT(metrics.counter("sim.fiber_failures"), 0);
  EXPECT_GT(metrics.counter("sim.node_outages"), 0);
  EXPECT_GT(metrics.counter("sim.degradations"), 0);
}

}  // namespace
}  // namespace surfnet::netsim
