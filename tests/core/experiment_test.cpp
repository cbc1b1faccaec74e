// Integration tests of the SurfNet facade: every (scenario, design) pair
// runs end to end, metrics are well-formed, trials are reproducible, and
// the observability plane (sinks through RunOptions) is deterministic
// under any thread count.

#include "core/surfnet.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/greedy.h"
#include "util/rng.h"

namespace surfnet::core {
namespace {

using DesignParam = std::tuple<FacilityLevel, ConnectionQuality,
                               NetworkDesign>;

class EndToEndTest : public ::testing::TestWithParam<DesignParam> {};

TEST_P(EndToEndTest, TrialProducesWellFormedMetrics) {
  const auto& [level, quality, design] = GetParam();
  const auto params = make_scenario(level, quality);
  const auto metrics = run_trial(params, design, 12345);
  EXPECT_GE(metrics.fidelity, 0.0);
  EXPECT_LE(metrics.fidelity, 1.0);
  EXPECT_GE(metrics.throughput, 0.0);
  EXPECT_LE(metrics.throughput, 1.0 + 1e-9);
  EXPECT_GE(metrics.latency, 0.0);
  EXPECT_GE(metrics.codes_scheduled, metrics.codes_delivered);
}

TEST_P(EndToEndTest, TrialsAreReproducible) {
  const auto& [level, quality, design] = GetParam();
  const auto params = make_scenario(level, quality);
  const auto a = run_trial(params, design, 777);
  const auto b = run_trial(params, design, 777);
  EXPECT_DOUBLE_EQ(a.fidelity, b.fidelity);
  EXPECT_DOUBLE_EQ(a.latency, b.latency);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, EndToEndTest,
    ::testing::Combine(
        ::testing::Values(FacilityLevel::Abundant, FacilityLevel::Sufficient,
                          FacilityLevel::Insufficient),
        ::testing::Values(ConnectionQuality::Good, ConnectionQuality::Poor),
        ::testing::Values(NetworkDesign::SurfNet, NetworkDesign::Raw,
                          NetworkDesign::Purification1,
                          NetworkDesign::Purification2,
                          NetworkDesign::Purification9)));

TEST(Experiment, AggregateCountsTrials) {
  const auto params =
      make_scenario(FacilityLevel::Abundant, ConnectionQuality::Good);
  const auto agg = run_trials(params, NetworkDesign::SurfNet, 5,
                              RunOptions{.seed = 99});
  EXPECT_EQ(agg.throughput.count(), 5u);
  EXPECT_LE(agg.fidelity.count(), 5u);
  EXPECT_GE(agg.fidelity.mean(), 0.0);
  EXPECT_LE(agg.fidelity.mean(), 1.0);
}

TEST(Experiment, SurfNetBeatsPurification1OnFidelity) {
  // The paper's headline (Fig. 7): SurfNet achieves higher average
  // communication fidelity than the single-round purification network.
  const auto params =
      make_scenario(FacilityLevel::Abundant, ConnectionQuality::Good);
  const auto surfnet = run_trials(params, NetworkDesign::SurfNet, 25,
                                  RunOptions{.seed = 4});
  const auto purif = run_trials(params, NetworkDesign::Purification1, 25,
                                RunOptions{.seed = 4});
  EXPECT_GT(surfnet.fidelity.mean(), purif.fidelity.mean());
}

TEST(Experiment, ScenarioNamesRoundTrip) {
  EXPECT_EQ(to_string(FacilityLevel::Abundant), "abundant");
  EXPECT_EQ(to_string(ConnectionQuality::Poor), "poor");
  EXPECT_EQ(to_string(NetworkDesign::Purification9), "Purification N=9");
}

TEST(Experiment, ScenarioDefaultsMatchPaperExample) {
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  // 25-qubit distance-4 code with a 7-qubit Core (paper Sec. V-A).
  EXPECT_EQ(params.simulation.code_distance, 4);
  EXPECT_EQ(params.routing.core_qubits, 7);
  EXPECT_EQ(params.routing.support_qubits, 18);
  EXPECT_GT(params.topology.num_nodes, 20);  // paper: over 20 nodes
}


TEST(Experiment, ParallelMatchesSequential) {
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  const auto serial = run_trials(params, NetworkDesign::SurfNet, 8,
                                 RunOptions{.seed = 5, .threads = 1});
  const auto parallel = run_trials(params, NetworkDesign::SurfNet, 8,
                                   RunOptions{.seed = 5, .threads = 4});
  EXPECT_DOUBLE_EQ(parallel.fidelity.mean(), serial.fidelity.mean());
  EXPECT_DOUBLE_EQ(parallel.latency.mean(), serial.latency.mean());
  EXPECT_DOUBLE_EQ(parallel.throughput.mean(), serial.throughput.mean());
  EXPECT_EQ(parallel.fidelity.count(), serial.fidelity.count());
}

TEST(Experiment, RunOptionsSeedAndThreadsAreIndependentKnobs) {
  // The RunOptions API is the one entry point since the seed/threads
  // overloads were retired: the same seed gives the same aggregate at any
  // thread count, and designated initializers cover the old call shapes.
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  const auto current = run_trials(params, NetworkDesign::SurfNet, 6,
                                  RunOptions{.seed = 31});
  const auto threaded = run_trials(params, NetworkDesign::SurfNet, 6,
                                   RunOptions{.seed = 31, .threads = 3});
  EXPECT_DOUBLE_EQ(threaded.fidelity.mean(), current.fidelity.mean());
  EXPECT_DOUBLE_EQ(threaded.latency.mean(), current.latency.mean());
  EXPECT_DOUBLE_EQ(threaded.throughput.mean(), current.throughput.mean());
}

namespace {

/// Run `trials` with a capture buffer + registry attached and return the
/// concatenated JSONL trace and the metrics JSON document.
std::pair<std::string, std::string> traced_run(int trials, int threads) {
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  RunOptions options;
  options.seed = 2024;
  options.threads = threads;
  options.sink = {&metrics, &trace};
  run_trials(params, NetworkDesign::SurfNet, trials, options);
  std::string jsonl;
  for (const auto& event : trace.events()) {
    jsonl += obs::to_jsonl(event);
    jsonl += '\n';
  }
  return {std::move(jsonl), metrics.to_json()};
}

}  // namespace

namespace {

/// Blank the "timers" section of a metrics JSON document: timers hold
/// measured wall-clock seconds, the one legitimately run-varying part.
std::string without_timers(std::string json) {
  const auto begin = json.find("\"timers\": {");
  if (begin == std::string::npos) return json;
  const auto end = json.find('}', begin);
  return json.erase(begin, end - begin + 1);
}

}  // namespace

TEST(Experiment, TraceIsThreadCountInvariant) {
  const auto [trace1, metrics1] = traced_run(6, /*threads=*/1);
  const auto [trace8, metrics8] = traced_run(6, /*threads=*/8);
  EXPECT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace8);
  // Counters and histograms are integer sums merged in trial order, so
  // everything except the measured wall-clock timers must match byte for
  // byte.
  EXPECT_EQ(without_timers(metrics1), without_timers(metrics8));
}

namespace {

/// One trial of the greedy-routing pipeline the routing and adaptive
/// ablations run through run_in_trial_order: topology, requests,
/// route_greedy, simulate_surfnet.
TrialMetrics greedy_trial(const ScenarioParams& params, std::uint64_t seed,
                          const obs::Sink& sink) {
  util::Rng rng(seed);
  const auto topology = netsim::make_random_topology(params.topology, rng);
  const auto requests = netsim::random_requests(
      topology, params.num_requests, params.max_codes_per_request, rng);
  auto routing = params.routing;
  routing.sink = sink;
  const auto schedule =
      routing::route_greedy(topology, requests, routing, rng);
  auto simulation = params.simulation;
  simulation.sink = sink;
  const decoder::SurfNetDecoder dec;
  const auto sim =
      netsim::simulate_surfnet(topology, schedule, simulation, dec, rng);
  return {.fidelity = sim.fidelity(),
          .latency = sim.avg_latency(),
          .throughput = schedule.throughput(),
          .codes_scheduled = sim.codes_scheduled,
          .codes_delivered = sim.codes_delivered};
}

}  // namespace

TEST(Experiment, TrialOrderRunnerReplaysAnyPipelineAtAnyThreadCount) {
  // The public runner with a pipeline other than run_trial: trial t gets
  // the t-th draw of the sequential seeder whatever the worker count, and
  // its events reach the session sink in trial order, stamped with t.
  const auto params =
      make_scenario(FacilityLevel::Insufficient, ConnectionQuality::Good);
  const int trials = 7;
  struct Run {
    std::vector<TrialMetrics> results;
    std::vector<std::string> lines;
    std::string metrics;
  };
  const auto run = [&](int threads) {
    Run out;
    out.results.resize(trials);
    obs::TraceBuffer trace;
    obs::MetricsRegistry metrics;
    run_in_trial_order(
        trials,
        RunOptions{.seed = 606, .threads = threads, .sink = {&metrics, &trace}},
        [&](std::size_t t, std::uint64_t seed, const obs::Sink& sink) {
          out.results[t] = greedy_trial(params, seed, sink);
        });
    for (const auto& event : trace.events())
      out.lines.push_back(obs::to_jsonl(event));
    out.metrics = without_timers(metrics.to_json());
    return out;
  };
  const Run serial = run(1);
  const Run threaded = run(3);

  util::Rng seeder(606);
  for (int t = 0; t < trials; ++t) {
    const TrialMetrics expected = greedy_trial(params, seeder(), {});
    for (const Run* r : {&serial, &threaded}) {
      const TrialMetrics& got = r->results[static_cast<std::size_t>(t)];
      EXPECT_EQ(got.fidelity, expected.fidelity) << "trial " << t;
      EXPECT_EQ(got.latency, expected.latency) << "trial " << t;
      EXPECT_EQ(got.throughput, expected.throughput) << "trial " << t;
      EXPECT_EQ(got.codes_scheduled, expected.codes_scheduled);
      EXPECT_EQ(got.codes_delivered, expected.codes_delivered);
    }
  }
  ASSERT_FALSE(serial.lines.empty());
  EXPECT_EQ(serial.lines, threaded.lines);
  EXPECT_EQ(serial.metrics, threaded.metrics);
  EXPECT_NE(serial.metrics.find("\"sim.decodes\""), std::string::npos);
  for (const auto& line : serial.lines)
    EXPECT_NE(line.find(",\"trial\":"), std::string::npos) << line;
}

TEST(Experiment, SinkDoesNotPerturbResults) {
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  const auto bare = run_trials(params, NetworkDesign::SurfNet, 5,
                               RunOptions{.seed = 12});
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  const auto traced =
      run_trials(params, NetworkDesign::SurfNet, 5,
                 RunOptions{.seed = 12, .sink = {&metrics, &trace}});
  EXPECT_DOUBLE_EQ(traced.fidelity.mean(), bare.fidelity.mean());
  EXPECT_DOUBLE_EQ(traced.latency.mean(), bare.latency.mean());
  EXPECT_DOUBLE_EQ(traced.throughput.mean(), bare.throughput.mean());
  EXPECT_GT(metrics.counter("sim.decodes"), 0);
  EXPECT_GT(metrics.counter("lp.solves"), 0);
}

TEST(Experiment, TrialEventTotalsReconcileWithMetrics) {
  // The acceptance check from the trace design: per-event totals in the
  // trace agree exactly with the aggregated counters.
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  const auto params =
      make_scenario(FacilityLevel::Sufficient, ConnectionQuality::Good);
  run_trials(params, NetworkDesign::SurfNet, 4,
             RunOptions{.seed = 77, .sink = {&metrics, &trace}});
  std::int64_t decodes = 0, delivered = 0, jumps = 0, pool_samples = 0;
  for (const auto& event : trace.events()) {
    switch (event.kind) {
      case obs::EventKind::Decode: ++decodes; break;
      case obs::EventKind::Delivered: ++delivered; break;
      case obs::EventKind::SegmentJump: ++jumps; break;
      case obs::EventKind::PoolLevel: ++pool_samples; break;
      default: break;
    }
  }
  EXPECT_EQ(decodes, metrics.counter("sim.decodes"));
  EXPECT_EQ(delivered, metrics.counter("sim.delivered"));
  EXPECT_EQ(jumps, metrics.counter("sim.segment_jumps"));
  const auto* pool = metrics.histogram("sim.pool_total");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool_samples, pool->total);
}

}  // namespace
}  // namespace surfnet::core
