// Replay tests for the slot loop, plus unit tests for the deterministic
// event queue the traffic engine runs on.
//
// The surface-code EventEngineDifferential configurations were recorded
// from the every-slot oracle that the retired slot-skipping engine was
// compared against, and the Purification* ones from simulate_purification
// when it still ran its own slot loop: each expected value is the dump()
// string and the four draws the RNG stream returned after the run. The
// simulator must reproduce both, with and without a sink attached. The
// golden traces in
// golden_trace_test.cpp pin the observed event stream; the randomized
// observed-vs-unobserved campaign lives in tests/event_property_test.cpp
// (extended label).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/event_queue.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

// ---------------------------------------------------------------- queue --

TEST(EventQueue, PopsBySlotThenClassThenSequence) {
  EventQueue queue;
  queue.push(7, EventClass::Arrival, 1);
  queue.push(3, EventClass::Arrival, 2);
  queue.push(3, EventClass::Departure, 3);
  queue.push(7, EventClass::Arrival, 4);  // same key as the first push
  queue.push(3, EventClass::Departure, 5);
  queue.push(1, EventClass::Arrival, 6);

  std::vector<int> payloads;
  while (!queue.empty()) payloads.push_back(queue.pop().payload);
  // slot 1 first; slot 3 by class priority (departures before the
  // arrival, in push order); slot 7 ties broken by push order.
  EXPECT_EQ(payloads, (std::vector<int>{6, 3, 5, 2, 1, 4}));
}

TEST(EventQueue, SequenceIdsMakeEqualKeysFifo) {
  EventQueue queue;
  for (int i = 0; i < 100; ++i) queue.push(5, EventClass::Departure, i);
  for (int i = 0; i < 100; ++i) {
    const auto event = queue.pop();
    EXPECT_EQ(event.payload, i);
    EXPECT_EQ(event.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, TracksPeakAndPushCount) {
  EventQueue queue;
  queue.push(1, EventClass::Arrival);
  queue.push(2, EventClass::Arrival);
  queue.pop();
  queue.push(3, EventClass::Departure);
  EXPECT_EQ(queue.peak_size(), 2u);
  EXPECT_EQ(queue.pushed(), 3u);
  EXPECT_EQ(queue.size(), 2u);
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

/// Two requests from user 0 to user 4, one through the server and one
/// through the bypass switch, so every slot shuffles their service order.
Schedule two_requests(int codes) {
  Schedule schedule = one_request(codes, true);
  ScheduledRequest bypass = schedule.scheduled[0];
  bypass.request_index = 1;
  bypass.support_path = {0, 1, 5, 3, 4};
  bypass.core_path = bypass.support_path;
  schedule.scheduled.push_back(bypass);
  schedule.requested_codes = 2 * codes;
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

RunOutput output_of(const SimulationResult& result, util::Rng& rng) {
  RunOutput out;
  out.result = dump(result);
  for (int i = 0; i < 4; ++i) out.rng_tail.push_back(rng());
  return out;
}

/// Runs simulate_surfnet, or simulate_purification when `rounds` > 0.
RunOutput run(bool observed, const Topology& topo, const Schedule& schedule,
              SimulationParams params, std::uint64_t seed, int rounds) {
  const decoder::SurfNetDecoder dec;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  if (observed) params.sink = {&metrics, &trace};
  util::Rng rng(seed);
  const auto result =
      rounds > 0
          ? simulate_purification(topo, schedule, rounds, params, rng)
          : simulate_surfnet(topo, schedule, params, dec, rng);
  return output_of(result, rng);
}

/// simulate_surfnet (or simulate_purification with `rounds` > 0),
/// unobserved and observed, must return the recorded result and leave the
/// recorded RNG stream behind.
void expect_recorded(const Topology& topo, const Schedule& schedule,
                     const SimulationParams& params, std::uint64_t seed,
                     const RunOutput& recorded, const std::string& label,
                     int rounds = 0) {
  for (const bool observed : {false, true}) {
    const auto got = run(observed, topo, schedule, params, seed, rounds);
    const std::string where = label + (observed ? " (observed)" : "");
    EXPECT_EQ(got.result, recorded.result) << where << ": SimulationResult";
    EXPECT_EQ(got.rng_tail, recorded.rng_tail) << where << ": RNG stream";
  }
}

TEST(EventEngine, NamesAndFallbacks) {
  // make_simulator(design)->run is the design's simulate_* call: the same
  // result, and the same RNG stream left behind, for all five designs.
  const decoder::SurfNetDecoder dec;
  const auto topo = ring_topology();
  SimulationParams params;
  params.entanglement_rate = 2.5;
  const std::vector<std::pair<NetworkDesign, int>> designs{
      {NetworkDesign::SurfNet, 0},       {NetworkDesign::Raw, 0},
      {NetworkDesign::Purification1, 1}, {NetworkDesign::Purification2, 2},
      {NetworkDesign::Purification9, 9}};
  for (const auto& [design, rounds] : designs) {
    const auto schedule = one_request(4, design != NetworkDesign::Raw, {2});
    const auto direct = run(false, topo, schedule, params, 2024, rounds);
    util::Rng rng(2024);
    const auto simulated = make_simulator(design, dec)
                               ->run(topo, schedule, params, rng);
    const auto via_simulator = output_of(simulated, rng);
    EXPECT_EQ(via_simulator.result, direct.result) << to_string(design);
    EXPECT_EQ(via_simulator.rng_tail, direct.rng_tail) << to_string(design);
  }
}

// ------------------------------------------------------- differentials --

TEST(EventEngineDifferential, GoldenFaultCampaignBitwise) {
  // The configuration pinned by golden/ring_faults.jsonl: scripted events
  // of every kind (including a fractional-rate degradation window:
  // 3.0 * 0.3) plus a stochastic fiber-cut process.
  SimulationParams params;
  params.max_slots = 300;
  params.entanglement_rate = 3.0;
  params.faults.scripted.push_back(
      {FaultKind::EntanglementDegradation, 10, 0, 40, 0.3});
  params.faults.scripted.push_back({FaultKind::FiberCut, 25, 1, 30, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 60, 5, 20, 1.0});
  params.faults.stochastic.fiber_cut_rate = 0.02;
  params.faults.stochastic.fiber_cut_duration = 15;
  expect_recorded(ring_topology(), one_request(6, true, {2}), params,
                  20240806,
                  {"6/6/6/98\n0 6 2 0\n0 5 2 0\n0 51 2 0\n0 20 2 0\n"
                   "0 11 2 0\n0 5 2 0\n",
                   {3279755026300016334ull, 12286616644935463685ull,
                    17402255837457802186ull, 3886025275464454016ull}},
                  "fault campaign");
}

TEST(EventEngineDifferential, GoldenRecoveryCampaignBitwise) {
  // The golden/ring_recovery.jsonl configuration: permanent cut, flaky
  // swaps, aggressive recovery, per-code timeout budget.
  SimulationParams params;
  params.max_slots = 600;
  params.swap_success = 0.5;
  params.recovery = RecoveryPolicy::aggressive();
  params.recovery.code_timeout_slots = 120;
  params.faults.scripted.push_back({FaultKind::FiberCut, 5, 1, 5000, 1.0});
  expect_recorded(ring_topology(), one_request(4, true, {2}), params, 424242,
                  {"4/4/4/55\n0 7 2 0\n0 12 2 0\n0 17 2 0\n0 19 2 0\n",
                   {10426029398549872882ull, 2612490882418579125ull,
                    2620269412783724888ull, 10926501521174509183ull}},
                  "recovery campaign");
}

TEST(EventEngineDifferential, ScriptedFaultsBitwise) {
  // One request under scripted faults only, on both channel layouts: a
  // blocked support channel, broken core segments, a fractional
  // degradation window, and holds over a long outage.
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
  struct Case {
    bool dual;
    std::uint64_t seed;
    RunOutput recorded;
  };
  const std::vector<Case> cases{
      {true, 7,
       {"5/5/5/163\n0 21 2 0\n0 28 2 0\n0 92 2 0\n0 15 2 0\n"
        "0 7 2 0\n",
        {11538268776955892506ull, 7986995967089533490ull,
         11135305275212593782ull, 8107741312106546968ull}}},
      {true, 99,
       {"5/5/5/145\n0 19 2 0\n0 9 2 0\n0 57 2 0\n0 12 2 0\n"
        "0 48 2 0\n",
        {14909578427141526347ull, 17008812886191635665ull,
         9897218274695193620ull, 14894291986086598264ull}}},
      {true, 20240808,
       {"5/5/5/149\n0 20 2 0\n0 23 2 0\n0 53 2 0\n0 46 2 0\n"
        "0 7 2 0\n",
        {8350654422964171497ull, 6149502381514186429ull,
         12951393409975362749ull, 2384936032628587727ull}}},
      {false, 7,
       {"5/5/2/37\n0 5 2 1\n0 8 2 0\n0 8 2 0\n0 8 2 1\n0 8 2 1\n",
        {11053129439159790335ull, 2095347969925768817ull,
         16988399823971409776ull, 8818871077953863478ull}}},
      {false, 99,
       {"5/5/5/37\n0 5 2 0\n0 8 2 0\n0 8 2 0\n0 8 2 0\n0 8 2 0\n",
        {11607120217758109622ull, 3759628366533581905ull,
         1097979349723368593ull, 8141126648826896237ull}}},
      {false, 20240808,
       {"5/5/4/37\n0 5 2 1\n0 8 2 0\n0 8 2 0\n0 8 2 0\n0 8 2 0\n",
        {14982522785377959101ull, 12614892096205642523ull,
         14331032405712813004ull, 9903350100037935048ull}}},
  };
  for (const auto& c : cases)
    expect_recorded(ring_topology(), one_request(5, c.dual, {2}), params,
                    c.seed, c.recorded,
                    std::string(c.dual ? "dual" : "raw") + " seed " +
                        std::to_string(c.seed));
}

TEST(EventEngineDifferential, QuiescentStarvedRunCensorsAtCapBitwise) {
  // Zero generation rate and no faults: the core channel can never jump,
  // and the in-flight code is censored at max_slots - 1 after the full
  // 20000-slot run.
  SimulationParams params;
  params.entanglement_rate = 0.0;
  params.recovery.code_timeout_slots = 0;  // no budget: runs to the cap
  expect_recorded(ring_topology(), one_request(2, true, {2}), params, 11,
                  {"2/0/0/0\n0 20000 0 2\n",
                   {4118682332196087775ull, 1609190652402573441ull,
                    4524261822856303789ull, 8186203469158895160ull}},
                  "starved run");
}

TEST(EventEngineDifferential, HeldWithoutRecoveryBitwise) {
  // local_reroute disabled: a blocked channel holds in place until the
  // fault window expires.
  SimulationParams params;
  params.max_slots = 1500;
  params.entanglement_rate = 4.0;
  params.recovery.local_reroute = false;
  params.faults.scripted.push_back({FaultKind::FiberCut, 3, 0, 400, 1.0});
  params.faults.scripted.push_back({FaultKind::NodeOutage, 500, 2, 200, 1.0});
  expect_recorded(ring_topology(), one_request(3, true, {2}), params, 5150,
                  {"3/3/3/413\n0 5 2 0\n0 403 2 0\n0 5 2 0\n",
                   {5704082023281518683ull, 711059571869984024ull,
                    6067097163317690899ull, 870328514928224009ull}},
                  "held code");
}

// ------------------------------------------------ purification replays --

TEST(EventEngineDifferential, PurificationRoundsBitwise) {
  // Purification N = 1, 2 and 9 at a fractional pair rate (one Bernoulli
  // per fiber per slot) on two requests that share their end fibers.
  SimulationParams params;
  params.max_slots = 2000;
  params.entanglement_rate = 2.5;
  struct Case {
    int rounds;
    std::uint64_t seed;
    RunOutput recorded;
  };
  const std::vector<Case> cases{
      {1, 101,
       {"8/8/7/33\n0 4 0 0\n1 5 0 0\n0 4 0 1\n1 4 0 0\n0 4 0 0\n"
        "1 4 0 0\n0 4 0 0\n1 4 0 0\n",
        {17484495926492006627ull, 4269452374640477868ull,
         8883022779090253751ull, 8054241765974566241ull}}},
      {2, 202,
       {"8/8/7/35\n0 5 0 0\n1 6 0 0\n0 4 0 0\n1 4 0 0\n0 4 0 0\n"
        "1 4 0 0\n0 4 0 1\n1 4 0 0\n",
        {2806675628997596572ull, 12994736161129671513ull,
         4573015658231801199ull, 693454716362758219ull}}},
      {9, 909,
       {"8/8/8/59\n1 7 0 0\n0 11 0 0\n0 4 0 0\n0 4 0 0\n0 4 0 0\n"
        "1 20 0 0\n1 5 0 0\n1 4 0 0\n",
        {2245962989498318771ull, 3149404420214965752ull,
         3974840414530898371ull, 6603259105507696059ull}}},
  };
  for (const auto& c : cases)
    expect_recorded(ring_topology(), two_requests(4), params, c.seed,
                    c.recorded, "N=" + std::to_string(c.rounds), c.rounds);
}

TEST(EventEngineDifferential, PurificationScriptedFiberCutBitwise) {
  // A scripted cut of fiber 1-2 holds the request through the server; the
  // bypass request keeps moving.
  SimulationParams params;
  params.max_slots = 500;
  params.faults.scripted.push_back({FaultKind::FiberCut, 3, 1, 40, 1.0});
  expect_recorded(ring_topology(), two_requests(3), params, 31337,
                  {"6/6/6/63\n0 4 0 0\n1 5 0 0\n1 4 0 0\n1 4 0 0\n"
                   "0 42 0 0\n0 4 0 0\n",
                   {7435567378566983941ull, 13704513484682552261ull,
                    487170964859616809ull, 16792930399198542033ull}},
                  "scripted cut", 2);
}

TEST(EventEngineDifferential, PurificationNodeOutagesBitwise) {
  SimulationParams params;
  params.max_slots = 1000;
  params.entanglement_rate = 3.0;
  params.faults.stochastic.node_outage_rate = 0.05;
  params.faults.stochastic.node_outage_duration = 10;
  expect_recorded(ring_topology(), two_requests(4), params, 4242,
                  {"8/8/8/85\n0 4 0 0\n1 5 0 0\n0 4 0 0\n1 4 0 0\n"
                   "0 22 0 0\n1 21 0 0\n1 4 0 0\n0 21 0 0\n",
                   {18370358568761184424ull, 1826106548706580807ull,
                    8334516294086525866ull, 16324933086729045500ull}},
                  "node outages", 1);
}

TEST(EventEngineDifferential, PurificationCodeTimeoutBitwise) {
  // N = 9 at a low pair rate: the per-code budget abandons slow codes.
  SimulationParams params;
  params.max_slots = 1000;
  params.entanglement_rate = 1.5;
  params.recovery.code_timeout_slots = 12;
  expect_recorded(ring_topology(), two_requests(3), params, 777,
                  {"6/4/4/30\n0 9 0 0\n1 12 0 2\n0 6 0 0\n0 7 0 0\n"
                   "1 12 0 2\n1 8 0 0\n",
                   {7595319280966811774ull, 425478609478296522ull,
                    9930308285234824409ull, 654149867638318513ull}},
                  "code timeout", 9);
}

TEST(EventEngineDifferential, PurificationCensorsAtCapBitwise) {
  // A small max_slots: codes still in flight at the cap are censored.
  SimulationParams params;
  params.max_slots = 9;
  params.entanglement_rate = 2.0;
  expect_recorded(ring_topology(), two_requests(5), params, 9090,
                  {"10/3/3/15\n1 5 0 0\n0 6 0 0\n1 4 0 0\n0 3 0 2\n",
                   {14173940321763449411ull, 11095719735047300705ull,
                    11667381609552189129ull, 14066779442033842325ull}},
                  "censored at cap", 2);
}

TEST(EventEngineDifferential, EverySlotModeAgreesThroughRunTrials) {
  // Facade-level check over a chaotic multi-request scenario: an observed
  // batch on one thread and an unobserved batch on four must agree
  // bitwise on every aggregate.
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
  const auto observed = run(/*observed=*/true, 1);
  const auto unobserved = run(/*observed=*/false, 4);
  EXPECT_EQ(observed, unobserved);
  // The comparison covers real work: codes were decoded under faults.
  EXPECT_GT(metrics.counter("sim.decodes"), 0);
  EXPECT_GT(metrics.counter("sim.fiber_failures"), 0);
  EXPECT_GT(metrics.counter("sim.node_outages"), 0);
  EXPECT_GT(metrics.counter("sim.degradations"), 0);
}

}  // namespace
}  // namespace surfnet::netsim
