#include "core/surfnet.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/incremental.h"
#include "routing/purification.h"
#include "routing/router.h"
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
      // The facade's Auto strategy owns the LP-with-greedy-fallback seam
      // (and the "route.greedy_fallbacks" counter) that used to live here.
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
      purification.budget_scale = 1.0;
      schedule =
          routing::route_purification(topology, requests, purification, rng);
      break;
    }
  }

  const decoder::SurfNetDecoder dec;
  const auto simulator = netsim::make_simulator(design, dec);
  const auto sim = simulator->run(topology, schedule, simulation, rng);

  TrialMetrics metrics;
  metrics.fidelity = sim.fidelity();
  metrics.latency = sim.avg_latency();
  metrics.throughput = schedule.throughput();
  metrics.codes_scheduled = sim.codes_scheduled;
  metrics.codes_delivered = sim.codes_delivered;
  return metrics;
}

namespace {

AggregateMetrics aggregate_in_order(const std::vector<TrialMetrics>& all) {
  AggregateMetrics aggregate;
  for (const auto& metrics : all) {
    // Fidelity/latency are averages over executed communications; trials
    // that executed nothing contribute throughput only.
    if (metrics.codes_delivered > 0) {
      aggregate.fidelity.add(metrics.fidelity);
      aggregate.latency.add(metrics.latency);
    }
    aggregate.throughput.add(metrics.throughput);
  }
  return aggregate;
}

}  // namespace

AggregateMetrics run_trials(const ScenarioParams& params,
                            NetworkDesign design, int trials,
                            const RunOptions& options) {
  if (trials < 0) throw std::invalid_argument("negative trial count");
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  util::Rng seeder(options.seed);
  for (auto& s : seeds) s = seeder();

  // Each trial records into private buffers; the merge below runs in trial
  // order, so metrics and traces do not depend on the worker count.
  std::vector<obs::TraceBuffer> traces;
  std::vector<obs::MetricsRegistry> registries;
  if (options.sink.trace) traces.resize(static_cast<std::size_t>(trials));
  if (options.sink.metrics)
    registries.resize(static_cast<std::size_t>(trials));

  auto trial_sink = [&](std::size_t t) {
    obs::Sink sink;
    if (options.sink.metrics) sink.metrics = &registries[t];
    if (options.sink.trace) sink.trace = &traces[t];
    return sink;
  };

  std::vector<TrialMetrics> results(static_cast<std::size_t>(trials));
  const int workers =
      std::max(1, std::min(options.threads, trials > 0 ? trials : 1));
  if (workers == 1) {
    for (int t = 0; t < trials; ++t) {
      const auto i = static_cast<std::size_t>(t);
      results[i] = run_trial(params, design, seeds[i], trial_sink(i));
    }
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (int t = w; t < trials; t += workers) {
          const auto i = static_cast<std::size_t>(t);
          results[i] = run_trial(params, design, seeds[i], trial_sink(i));
        }
      });
    }
    for (auto& th : pool) th.join();
  }

  if (options.sink.metrics)
    for (const auto& registry : registries)
      options.sink.metrics->merge(registry);
  if (options.sink.trace)
    for (std::size_t t = 0; t < traces.size(); ++t)
      traces[t].flush_to(*options.sink.trace, static_cast<std::int32_t>(t));
  return aggregate_in_order(results);
}

TrafficScenario make_traffic_scenario(FacilityLevel level,
                                      ConnectionQuality quality) {
  const ScenarioParams batch = make_scenario(level, quality);
  TrafficScenario scenario;
  scenario.topology = batch.topology;
  scenario.routing = batch.routing;
  scenario.routing.dual_channel = true;
  scenario.workload.process = netsim::ArrivalProcess::Poisson;
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

AggregateTraffic run_trials(const TrafficScenario& scenario, int trials,
                            const RunOptions& options) {
  if (trials < 0) throw std::invalid_argument("negative trial count");
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  util::Rng seeder(options.seed);
  for (auto& s : seeds) s = seeder();

  // Same discipline as the batch overload: private per-trial buffers,
  // merged in trial order after the workers join.
  std::vector<obs::TraceBuffer> traces;
  std::vector<obs::MetricsRegistry> registries;
  if (options.sink.trace) traces.resize(static_cast<std::size_t>(trials));
  if (options.sink.metrics)
    registries.resize(static_cast<std::size_t>(trials));

  auto trial_sink = [&](std::size_t t) {
    obs::Sink sink;
    if (options.sink.metrics) sink.metrics = &registries[t];
    if (options.sink.trace) sink.trace = &traces[t];
    return sink;
  };

  std::vector<netsim::TrafficResult> results(
      static_cast<std::size_t>(trials));
  const int workers =
      std::max(1, std::min(options.threads, trials > 0 ? trials : 1));
  if (workers == 1) {
    for (int t = 0; t < trials; ++t) {
      const auto i = static_cast<std::size_t>(t);
      results[i] = run_traffic_trial(scenario, seeds[i], trial_sink(i));
    }
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (int t = w; t < trials; t += workers) {
          const auto i = static_cast<std::size_t>(t);
          results[i] = run_traffic_trial(scenario, seeds[i], trial_sink(i));
        }
      });
    }
    for (auto& th : pool) th.join();
  }

  if (options.sink.metrics)
    for (const auto& registry : registries)
      options.sink.metrics->merge(registry);
  if (options.sink.trace)
    for (std::size_t t = 0; t < traces.size(); ++t)
      traces[t].flush_to(*options.sink.trace, static_cast<std::int32_t>(t));

  AggregateTraffic aggregate;
  for (const auto& r : results) {
    aggregate.admitted_per_slot.add(r.admitted_per_slot());
    if (r.measured_arrivals > 0)
      aggregate.blocking_probability.add(r.blocking_probability());
    if (r.latency_count > 0) {
      aggregate.p50_latency.add(r.latency_percentile(0.50));
      aggregate.p99_latency.add(r.latency_percentile(0.99));
    }
  }
  return aggregate;
}

}  // namespace surfnet::core
