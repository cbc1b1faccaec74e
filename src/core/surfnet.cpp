#include "core/surfnet.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/incremental.h"
#include "routing/purification.h"
#include "routing/router.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace surfnet::core {

std::string_view to_string(FacilityLevel level) {
  switch (level) {
    case FacilityLevel::Abundant: return "abundant";
    case FacilityLevel::Sufficient: return "sufficient";
    case FacilityLevel::Insufficient: return "insufficient";
  }
  return "?";
}

std::string_view to_string(ConnectionQuality quality) {
  return quality == ConnectionQuality::Good ? "good" : "poor";
}

ScenarioParams make_scenario(FacilityLevel level, ConnectionQuality quality) {
  ScenarioParams params;

  switch (level) {
    case FacilityLevel::Abundant:
      params.topology.num_nodes = 26;
      params.topology.num_servers = 5;
      params.topology.num_switches = 10;
      params.topology.storage_capacity = 250;
      params.topology.entanglement_capacity = 80;
      params.simulation.entanglement_rate = 6.0;
      break;
    case FacilityLevel::Sufficient:
      params.topology.num_nodes = 24;
      params.topology.num_servers = 3;
      params.topology.num_switches = 8;
      params.topology.storage_capacity = 120;
      params.topology.entanglement_capacity = 40;
      params.simulation.entanglement_rate = 4.0;
      break;
    case FacilityLevel::Insufficient:
      params.topology.num_nodes = 22;
      params.topology.num_servers = 2;
      params.topology.num_switches = 6;
      params.topology.storage_capacity = 60;
      params.topology.entanglement_capacity = 15;
      params.simulation.entanglement_rate = 2.0;
      break;
  }
  params.topology.attach_edges = 2;
  params.topology.fidelity_lo =
      (quality == ConnectionQuality::Good) ? 0.75 : 0.5;
  params.topology.fidelity_hi = 1.0;

  // Noise thresholds trade fidelity for throughput (paper Fig. 6(b.4)); on
  // poor fibers they are relaxed so every design executes a comparable
  // share of requests (the Fig. 7 similar-throughput configuration).
  if (quality == ConnectionQuality::Poor) {
    params.routing.core_noise_threshold = 0.45;
    params.routing.total_noise_threshold = 0.55;
    params.routing.ec_reduction = 0.2;
  }

  // The paper's distance-4 example code: 25 data qubits, 7-qubit Core.
  params.simulation.code_distance = 4;
  params.routing.core_qubits = 7;
  params.routing.support_qubits = 18;
  return params;
}

TrialMetrics run_trial(const ScenarioParams& params, NetworkDesign design,
                       std::uint64_t seed) {
  return run_trial(params, design, seed, obs::Sink{});
}

TrialMetrics run_trial(const ScenarioParams& params, NetworkDesign design,
                       std::uint64_t seed, const obs::Sink& sink) {
  util::Rng rng(seed);
  const auto topology = netsim::make_random_topology(params.topology, rng);
  const auto requests = netsim::random_requests(
      topology, params.num_requests, params.max_codes_per_request, rng);

  netsim::SimulationParams simulation = params.simulation;
  simulation.sink = sink;

  netsim::Schedule schedule;
  switch (design) {
    case NetworkDesign::SurfNet:
    case NetworkDesign::Raw: {
      routing::RoutingParams routing = params.routing;
      routing.dual_channel = design == NetworkDesign::SurfNet;
      routing.sink = sink;
      // route() falls back to the greedy scheduler when the LP has no
      // optimum, and counts it as "route.greedy_fallbacks".
      auto routed = routing::route(topology, requests, routing, rng);
      schedule = std::move(routed.schedule);
      break;
    }
    case NetworkDesign::Purification1:
    case NetworkDesign::Purification2:
    case NetworkDesign::Purification9: {
      routing::PurificationParams purification;
      purification.extra_pairs = netsim::purification_rounds(design);
      // All designs share the same per-fiber pair budget; a message costs
      // (1 + N) pairs per hop here versus n Core qubits per hop in
      // SurfNet, which keeps throughput comparable (Fig. 7 methodology).
      schedule =
          routing::route_purification(topology, requests, purification, rng);
      break;
    }
  }

  const decoder::SurfNetDecoder dec;
  const auto sim =
      netsim::Simulator(design, dec).run(topology, schedule, simulation, rng);

  TrialMetrics metrics;
  metrics.fidelity = sim.fidelity();
  metrics.latency = sim.avg_latency();
  metrics.throughput = schedule.throughput();
  metrics.codes_scheduled = sim.codes_scheduled;
  metrics.codes_delivered = sim.codes_delivered;
  return metrics;
}

void AggregateMetrics::add(const TrialMetrics& trial) {
  // Fidelity/latency are averages over executed communications; trials
  // that executed nothing contribute throughput and delivery only.
  if (trial.codes_delivered > 0) {
    fidelity.add(trial.fidelity);
    latency.add(trial.latency);
  }
  throughput.add(trial.throughput);
  delivered.add(trial.codes_scheduled > 0
                    ? static_cast<double>(trial.codes_delivered) /
                          trial.codes_scheduled
                    : 0.0);
}

void run_in_trial_order(
    int trials, const RunOptions& options,
    const std::function<void(std::size_t t, std::uint64_t seed,
                             const obs::Sink& sink)>& body) {
  if (trials < 0)
    throw std::invalid_argument("run_in_trial_order: negative trial count");
  const auto count = static_cast<std::size_t>(trials);
  std::vector<std::uint64_t> seeds(count);
  util::Rng seeder(options.seed);
  for (auto& s : seeds) s = seeder();

  std::vector<obs::TraceBuffer> traces;
  std::vector<obs::MetricsRegistry> registries;
  if (options.sink.trace) traces.resize(count);
  if (options.sink.metrics) registries.resize(count);

  // Scenario trials take milliseconds, so each is its own chunk: a cell
  // of a few trials still reaches every worker.
  util::parallel_for(
      trials, options.threads, 1, [&](int, std::int64_t begin, std::int64_t) {
        const auto t = static_cast<std::size_t>(begin);
        obs::Sink sink;
        if (options.sink.metrics) sink.metrics = &registries[t];
        if (options.sink.trace) sink.trace = &traces[t];
        body(t, seeds[t], sink);
      });

  if (options.sink.metrics)
    for (const auto& registry : registries)
      options.sink.metrics->merge(registry);
  if (options.sink.trace)
    for (std::size_t t = 0; t < traces.size(); ++t)
      traces[t].flush_to(*options.sink.trace, static_cast<std::int32_t>(t));
}

AggregateMetrics run_trials(const ScenarioParams& params,
                            NetworkDesign design, int trials,
                            const RunOptions& options) {
  std::vector<TrialMetrics> results(
      static_cast<std::size_t>(std::max(trials, 0)));
  run_in_trial_order(
      trials, options,
      [&](std::size_t t, std::uint64_t seed, const obs::Sink& sink) {
        results[t] = run_trial(params, design, seed, sink);
      });
  AggregateMetrics aggregate;
  for (const auto& metrics : results) aggregate.add(metrics);
  return aggregate;
}

TrafficScenario make_traffic_scenario(FacilityLevel level,
                                      ConnectionQuality quality) {
  const ScenarioParams batch = make_scenario(level, quality);
  TrafficScenario scenario;
  scenario.topology = batch.topology;
  scenario.routing = batch.routing;
  scenario.routing.dual_channel = true;
  scenario.workload.arrival_rate = 0.25;
  scenario.workload.horizon_slots = 2000;
  scenario.workload.warmup_slots = 200;
  scenario.workload.reoptimize_every = 64;
  return scenario;
}

netsim::TrafficResult run_traffic_trial(const TrafficScenario& scenario,
                                        std::uint64_t seed,
                                        const obs::Sink& sink) {
  util::Rng rng(seed);
  const auto topology =
      netsim::make_random_topology(scenario.topology, rng);

  routing::RoutingParams routing = scenario.routing;
  routing.sink = sink;
  routing::IncrementalRouter provider(topology, routing);

  netsim::WorkloadParams workload = scenario.workload;
  workload.sink = sink;
  return netsim::run_traffic(topology, provider, workload, rng);
}

}  // namespace surfnet::core
