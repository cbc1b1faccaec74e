// Dynamic-traffic engine tests (netsim/workload.h).
//
// The determinism contract under test: a (seed, params) traffic stream
// replays bitwise from the same seed, across 1 and 8 worker threads
// (through core::run_in_trial_order's trial-ordered merge), with or
// without a sink, and against a committed golden trace. Admission-control semantics
// (load cap, fidelity floor, deadline, warmup cutoff) are pinned with a
// scripted provider so they do not depend on the live router.
//
// Regenerate the golden trace after an intentional behavior change:
//   SURFNET_REGEN_GOLDEN=1 ctest -R GoldenTraffic

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/surfnet.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/incremental.h"
#include "util/rng.h"
#include "util/stats.h"

namespace surfnet::netsim {
namespace {

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (same shape as golden_trace_test.cpp).
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

std::string jsonl_of(const obs::TraceBuffer& buffer) {
  std::string out;
  for (const auto& event : buffer.events()) out += obs::to_jsonl(event) + "\n";
  return out;
}

/// Metrics document with the wall-clock timer section blanked: counters,
/// gauges and histograms are deterministic, elapsed seconds are not.
std::string without_timers(const obs::MetricsRegistry& metrics) {
  std::string json = metrics.to_json();
  const auto start = json.find("\"timers\": {");
  if (start == std::string::npos) return json;
  const auto end = json.find('}', start);
  return json.substr(0, start) + json.substr(end + 1);
}

/// Field-by-field equality of two traffic results (gtest-friendly: the
/// failure names the diverging field).
void expect_results_equal(const TrafficResult& a, const TrafficResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.last_slot, b.last_slot);
  EXPECT_EQ(a.measured_slots, b.measured_slots);
  EXPECT_EQ(a.measured_arrivals, b.measured_arrivals);
  EXPECT_EQ(a.measured_admitted, b.measured_admitted);
  EXPECT_EQ(a.measured_blocked, b.measured_blocked);
  EXPECT_EQ(a.measured_departures, b.measured_departures);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.blocked_by[i], b.blocked_by[i]);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a.admitted_by[i], b.admitted_by[i]);
  EXPECT_EQ(a.latency_hist, b.latency_hist);
  EXPECT_EQ(a.latency_count, b.latency_count);
  EXPECT_EQ(a.latency_total, b.latency_total);
}

/// A busy-but-not-saturating stream over the ring with every knob that
/// draws randomness enabled.
WorkloadParams busy_params() {
  WorkloadParams params;
  params.arrival_rate = 0.5;
  params.horizon_slots = 600;
  params.warmup_slots = 50;
  params.reoptimize_every = 16;
  params.classes = {
      {2.0, 1, 0.0, 0},    // bulk: one code, no constraints
      {1.0, 2, 0.0, 40},   // large: two codes, deadlined
      {0.5, 1, 0.6, 0},    // picky: fidelity floor
  };
  return params;
}

routing::RoutingParams ring_routing() {
  routing::RoutingParams params;
  params.dual_channel = true;
  return params;
}

struct TrafficRun {
  TrafficResult result;
  std::string trace;
  std::string metrics;
  std::uint64_t next_draw = 0;  ///< post-run RNG probe
};

TrafficRun run_once(const WorkloadParams& base, std::uint64_t seed) {
  const auto topology = ring_topology();
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  WorkloadParams params = base;
  params.sink = obs::Sink{&metrics, &trace};

  routing::RoutingParams routing = ring_routing();
  routing.sink = params.sink;
  routing::IncrementalRouter provider(topology, routing);

  util::Rng rng(seed);
  TrafficRun run;
  run.result = run_traffic(topology, provider, params, rng);
  run.trace = jsonl_of(trace);
  run.metrics = without_timers(metrics);
  run.next_draw = rng();
  return run;
}

TEST(Workload, SameSeedStreamReplaysBitwise) {
  const auto params = busy_params();
  const auto first = run_once(params, 2024);
  const auto second = run_once(params, 2024);

  expect_results_equal(first.result, second.result);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, second.metrics);
  // Both runs consumed the identical RNG stream: the next draw agrees.
  EXPECT_EQ(first.next_draw, second.next_draw);
  // The run did something worth comparing.
  EXPECT_GT(first.result.arrivals, 100);
  EXPECT_GT(first.result.admitted, 0);
  EXPECT_GT(first.result.departures, 0);
}

TEST(Workload, MaxRequestsCapsTheStream) {
  auto params = busy_params();
  params.max_requests = 25;
  const auto run = run_once(params, 11);
  EXPECT_LE(run.result.arrivals, 25);
  // Every admitted request eventually departs once arrivals stop.
  EXPECT_EQ(run.result.departures, run.result.admitted);
}

TEST(Workload, WarmupSlotsExcludeEarlyEventsFromMeasurement) {
  auto params = busy_params();
  params.warmup_slots = 300;  // half the horizon
  const auto run = run_once(params, 5);
  EXPECT_LT(run.result.measured_arrivals, run.result.arrivals);
  EXPECT_EQ(run.result.measured_slots,
            run.result.last_slot - params.warmup_slots + 1);
  // Totals still count everything.
  EXPECT_EQ(run.result.arrivals,
            run.result.admitted + run.result.blocked);
}

// ---------------------------------------------------------------------------
// Admission-control semantics with a scripted provider.

/// Deterministic provider: admits everything with a fixed route, counting
/// admits and releases so tests can assert the release-on-block contract.
struct ScriptedProvider final : RouteProvider {
  std::vector<int> path{0, 1, 2, 3, 4};
  double noise = 0.1;
  bool refuse = false;
  int admits = 0;
  int releases = 0;

  std::optional<AdmittedRoute> admit(int, int, int codes) override {
    if (refuse) return std::nullopt;
    ++admits;
    AdmittedRoute route;
    route.path = path;
    route.noise = noise;
    route.codes = codes;
    return route;
  }
  void release(const AdmittedRoute&) override { ++releases; }
  double reoptimize() override { return 0.0; }
};

WorkloadParams scripted_params() {
  WorkloadParams params;
  params.arrival_rate = 1.0;
  params.horizon_slots = 200;
  return params;
}

TEST(Workload, LoadCapBlocksWithoutConsultingProvider) {
  ScriptedProvider provider;
  auto params = scripted_params();
  // One code at a time: each admit holds the cap for at least
  // kServiceBaseSlots + 4 * kServicePerHopSlots = 12 slots, while about
  // one request arrives per slot.
  params.max_active_codes = 1;
  util::Rng rng(3);
  const auto result = run_traffic(ring_topology(), provider, params, rng);
  EXPECT_GT(result.blocked_by[static_cast<int>(BlockReason::Load)], 0);
  // Load blocks never reached the provider: one admit per admitted
  // request, one release per departure, nothing else.
  EXPECT_EQ(provider.admits, result.admitted);
  EXPECT_EQ(provider.releases, result.departures);
}

TEST(Workload, FidelityFloorBlocksAndReleasesTheRoute) {
  ScriptedProvider provider;
  provider.noise = 0.5;  // route fidelity 0.5
  auto params = scripted_params();
  params.classes = {{1.0, 1, /*fidelity_floor=*/0.9, 0}};
  util::Rng rng(3);
  const auto result = run_traffic(ring_topology(), provider, params, rng);
  EXPECT_EQ(result.admitted, 0);
  EXPECT_EQ(result.blocked, result.arrivals);
  EXPECT_EQ(result.blocked_by[static_cast<int>(BlockReason::Fidelity)],
            result.measured_blocked);
  // Every blocked-after-admit route was handed back to the provider.
  EXPECT_EQ(provider.releases, provider.admits);
}

TEST(Workload, DeadlineBlocksSlowRoutes) {
  ScriptedProvider provider;  // 4 hops
  auto params = scripted_params();
  // The delivery estimate is kServiceBaseSlots + 4 * kServicePerHopSlots.
  const int estimate = kServiceBaseSlots + 4 * kServicePerHopSlots;
  params.classes = {{1.0, 1, 0.0, /*deadline_slots=*/estimate - 2}};
  util::Rng rng(3);
  const auto result = run_traffic(ring_topology(), provider, params, rng);
  EXPECT_EQ(result.admitted, 0);
  EXPECT_EQ(result.blocked_by[static_cast<int>(BlockReason::Deadline)],
            result.measured_blocked);
  EXPECT_EQ(provider.releases, provider.admits);
}

TEST(Workload, ProviderRefusalBlocksAsCapacity) {
  ScriptedProvider provider;
  provider.refuse = true;
  auto params = scripted_params();
  util::Rng rng(3);
  const auto result = run_traffic(ring_topology(), provider, params, rng);
  EXPECT_EQ(result.admitted, 0);
  EXPECT_EQ(result.blocked_by[static_cast<int>(BlockReason::Capacity)],
            result.measured_blocked);
}

TEST(Workload, ParameterValidation) {
  ScriptedProvider provider;
  const auto topology = ring_topology();
  util::Rng rng(1);

  WorkloadParams bad_rate;
  bad_rate.arrival_rate = 0.0;
  EXPECT_THROW(run_traffic(topology, provider, bad_rate, rng),
               std::invalid_argument);

  WorkloadParams bad_class;
  bad_class.classes = {{0.0, 1, 0.0, 0}};
  EXPECT_THROW(run_traffic(topology, provider, bad_class, rng),
               std::invalid_argument);

  // A topology with fewer than two users cannot host a stream.
  std::vector<Node> nodes(2);
  nodes[1] = {NodeRole::Switch, 10};
  Topology lonely(std::move(nodes), {{0, 1, 0.9, 10}});
  WorkloadParams ok;
  EXPECT_THROW(run_traffic(lonely, provider, ok, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Thread-count invariance through the core traffic batch runner.

core::TrafficScenario small_scenario() {
  auto scenario = core::make_traffic_scenario(core::FacilityLevel::Sufficient,
                                              core::ConnectionQuality::Good);
  scenario.workload.horizon_slots = 300;
  scenario.workload.warmup_slots = 50;
  return scenario;
}

struct BatchRun {
  std::string trace;
  std::string metrics;
  double admitted_per_slot = 0.0;
  double blocking = 0.0;
  double p99_latency = 0.0;
};

/// Six traffic trials of `scenario` through core::run_in_trial_order.
BatchRun run_batch(const core::TrafficScenario& scenario, int threads,
                   bool observed = true) {
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  core::RunOptions options;
  options.threads = threads;
  if (observed) options.sink = obs::Sink{&metrics, &trace};
  std::vector<TrafficResult> results(6);
  core::run_in_trial_order(
      6, options,
      [&](std::size_t t, std::uint64_t seed, const obs::Sink& sink) {
        results[t] = core::run_traffic_trial(scenario, seed, sink);
      });
  util::RunningStat admitted, blocking, p99;
  for (const auto& r : results) {
    admitted.add(r.admitted_per_slot());
    if (r.measured_arrivals > 0) blocking.add(r.blocking_probability());
    if (r.latency_count > 0) p99.add(r.latency_percentile(0.99));
  }
  BatchRun run;
  run.trace = jsonl_of(trace);
  run.metrics = without_timers(metrics);
  run.admitted_per_slot = admitted.mean();
  run.blocking = blocking.mean();
  run.p99_latency = p99.mean();
  return run;
}

BatchRun run_batch(int threads, bool observed = true) {
  return run_batch(small_scenario(), threads, observed);
}

TEST(Workload, TrafficTrialsAreThreadCountInvariant) {
  const auto one = run_batch(1);
  const auto eight = run_batch(8);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.metrics, eight.metrics);
  EXPECT_EQ(one.admitted_per_slot, eight.admitted_per_slot);
  EXPECT_EQ(one.blocking, eight.blocking);
  EXPECT_EQ(one.p99_latency, eight.p99_latency);
  EXPECT_FALSE(one.trace.empty());
}

TEST(Workload, TrafficTrialsAreSinkInvariant) {
  // The sink reaches the workload stream and the incremental router's
  // counters; observing a batch must not change one decision.
  const auto observed = run_batch(1);
  const auto bare = run_batch(1, /*observed=*/false);
  EXPECT_EQ(observed.admitted_per_slot, bare.admitted_per_slot);
  EXPECT_EQ(observed.blocking, bare.blocking);
  EXPECT_EQ(observed.p99_latency, bare.p99_latency);
  EXPECT_TRUE(bare.trace.empty());
  EXPECT_GT(bare.admitted_per_slot, 0.0);
  EXPECT_GT(bare.blocking, 0.0);
}

TEST(Workload, RouterCountersSayWhyEachArrivalFoundNoCapacity) {
  // With no warm-up and no load cap every arrival reaches the router, which
  // counts each admit() as admitted ("greedy"), planless ("no_plan": no
  // route passes Eq. (6)) or too big for its plan ("infeasible_plan": the
  // codes do not fit the planned route). The last two are exactly the
  // capacity blocks, and counting them changes nothing.
  auto scenario = core::make_traffic_scenario(core::FacilityLevel::Sufficient,
                                              core::ConnectionQuality::Good);
  scenario.workload.arrival_rate = 2.0;
  scenario.workload.horizon_slots = 500;
  scenario.workload.warmup_slots = 0;
  scenario.workload.max_active_codes = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    obs::MetricsRegistry metrics;
    const TrafficResult observed =
        core::run_traffic_trial(scenario, seed, obs::Sink{&metrics, nullptr});
    expect_results_equal(observed, core::run_traffic_trial(scenario, seed));

    const auto greedy = metrics.counter("route.incremental.greedy");
    const auto no_plan = metrics.counter("route.incremental.no_plan");
    const auto infeasible =
        metrics.counter("route.incremental.infeasible_plan");
    EXPECT_GT(no_plan, 0);
    EXPECT_GT(infeasible, 0);
    EXPECT_EQ(greedy + no_plan + infeasible, observed.arrivals);
    EXPECT_EQ(no_plan + infeasible,
              observed.blocked_by[static_cast<int>(BlockReason::Capacity)]);
  }
}

// ---------------------------------------------------------------------------
// Golden steady-state trace.

std::string golden_path(const char* name) {
  return std::string(SURFNET_TEST_DATA_DIR) + "/netsim/golden/" + name;
}

TEST(Workload, GoldenTrafficTrace) {
  auto params = busy_params();
  params.horizon_slots = 200;
  params.warmup_slots = 20;
  const auto run = run_once(params, 20240607);

  const auto path = golden_path("traffic_stream.jsonl");
  if (std::getenv("SURFNET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << run.trace;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden trace " << path
                         << " — regenerate with SURFNET_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(run.trace, buffer.str())
      << "traffic stream diverged from the committed golden trace";
}

// ---------------------------------------------------------------------------
// Adaptive code selection under a fidelity-degradation window.

/// Stream with a deterministic degradation window in the middle: fibers
/// measure as fidelity^2 while slots lie in [80, 160).
WorkloadParams adaptive_window_params() {
  WorkloadParams params;
  params.arrival_rate = 0.5;
  params.horizon_slots = 300;
  params.warmup_slots = 20;
  params.degrade_from_slot = 80;
  params.degrade_until_slot = 160;
  params.degrade_noise_scale = 2.0;
  return params;
}

/// Adaptive-distance stream over a clean ring: outside the window routes
/// carry compact distance-3 codes, inside it the doubled noise pushes the
/// planner into the distance-4 band.
TrafficRun run_adaptive_once(std::uint64_t seed) {
  const auto topology = ring_topology(0.97);
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  WorkloadParams params = adaptive_window_params();
  params.sink = obs::Sink{&metrics, &trace};

  routing::RoutingParams routing = ring_routing();
  routing.adaptive_code_distance = true;
  routing.sink = params.sink;
  routing::IncrementalRouter provider(topology, routing);

  util::Rng rng(seed);
  TrafficRun run;
  run.result = run_traffic(topology, provider, params, rng);
  run.trace = jsonl_of(trace);
  run.metrics = without_timers(metrics);
  run.next_draw = rng();
  return run;
}

/// Integer field value of one JSONL line ("key": must be present).
int jsonl_int_field(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return std::atoi(line.c_str() + pos + key.size() + 3);
}

struct AdmitRecord {
  int slot = 0;
  int distance = 0;
};

std::vector<AdmitRecord> admit_records(const std::string& trace) {
  std::vector<AdmitRecord> out;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ev\":\"admit\"") == std::string::npos) continue;
    out.push_back({jsonl_int_field(line, "slot"),
                   jsonl_int_field(line, "distance")});
  }
  return out;
}

TEST(Workload, AdaptiveDistanceFollowsTheDegradationWindow) {
  const auto run = run_adaptive_once(20240607);
  const auto records = admit_records(run.trace);
  ASSERT_FALSE(records.empty());

  int inside = 0;
  int compact_outside = 0;
  for (const auto& record : records) {
    const bool in_window = record.slot >= 80 && record.slot < 160;
    if (in_window) {
      ++inside;
      // Doubled noise leaves no distance-3 route: every admitted request
      // escalates to the distance-4 code.
      EXPECT_EQ(record.distance, 4) << "slot " << record.slot;
    } else if (record.distance == 3) {
      ++compact_outside;
    }
  }
  // The stream must actually demonstrate the escalation: admits inside
  // the window, and compact distance-3 codes outside it.
  EXPECT_GT(inside, 0);
  EXPECT_GT(compact_outside, 0);
  // The window opened and closed exactly once.
  EXPECT_NE(run.metrics.find("traffic.noise_scale_changes"),
            std::string::npos);
}

TEST(Workload, GoldenAdaptiveTrafficTrace) {
  const auto run = run_adaptive_once(20240607);

  const auto path = golden_path("traffic_adaptive.jsonl");
  if (std::getenv("SURFNET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << run.trace;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden trace " << path
                         << " — regenerate with SURFNET_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(run.trace, buffer.str())
      << "adaptive traffic stream diverged from the committed golden trace";
}

TEST(Workload, AdaptiveTrafficIsThreadCountInvariant) {
  // The degradation window is a pure function of the event slot, so the
  // adaptive stream stays bitwise identical across worker counts through
  // core::run_in_trial_order's trial-ordered merge.
  auto scenario = small_scenario();
  scenario.routing.adaptive_code_distance = true;
  scenario.workload.degrade_from_slot = 100;
  scenario.workload.degrade_until_slot = 200;
  scenario.workload.degrade_noise_scale = 1.5;
  const auto one = run_batch(scenario, 1);
  const auto eight = run_batch(scenario, 8);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.metrics, eight.metrics);
  EXPECT_FALSE(one.trace.empty());
}

}  // namespace
}  // namespace surfnet::netsim
