#pragma once

// SurfNet public facade: one-call end-to-end experiments.
//
// A trial generates a random Barabasi-Albert network and a batch of
// communication requests, schedules them with the selected network
// design's routing protocol (paper Sec. V-A / VI-B), executes the schedule
// on the round-based simulator (Sec. V-B), and reports the paper's three
// metrics (Sec. VI-C): fidelity (success rate of executed communications),
// latency (average slots per communication), and throughput (executed /
// requested communications).
//
// The batch entry point is run_trials(params, design, trials, RunOptions):
// RunOptions bundles the base seed, the worker-thread count, and an
// observability sink. Per-trial seeds are fixed up front and results are
// merged in trial order, so aggregates — and, with a sink attached, the
// exported metrics and the event trace — are bitwise-identical for any
// thread count.
//
// Dynamic traffic: TrafficScenario + run_traffic_trial / run_trials run
// an open-loop arrival/departure stream (netsim/workload.h) against the
// greedy-only incremental router (routing/incremental.h) instead of a
// fixed request batch, with the same seed-derivation and trial-ordered
// merge discipline.

#include <cstdint>
#include <string_view>

#include "netsim/simulator.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/sink.h"
#include "routing/formulation.h"
#include "util/stats.h"

namespace surfnet::core {

/// The three facility scenarios of Fig. 6(a) / Fig. 7.
enum class FacilityLevel { Abundant, Sufficient, Insufficient };

/// Fiber-quality scenarios: good = gamma in [0.75, 1], poor = [0.5, 1].
enum class ConnectionQuality { Good, Poor };

/// The five network designs compared in Fig. 7 (defined next to the
/// simulators that execute them; re-exported here for the facade API).
using netsim::NetworkDesign;

std::string_view to_string(FacilityLevel level);
std::string_view to_string(ConnectionQuality quality);
using netsim::to_string;

/// Everything one trial needs. Produced by make_scenario and then freely
/// overridden for the Fig. 6(b) parameter sweeps.
struct ScenarioParams {
  netsim::TopologySpec topology;
  int num_requests = 6;
  int max_codes_per_request = 3;
  routing::RoutingParams routing;
  netsim::SimulationParams simulation;
};

/// Default parameters for a (facility, connection) scenario. The surface
/// code is the paper's distance-4 example (25 qubits, 7 Core).
ScenarioParams make_scenario(FacilityLevel level, ConnectionQuality quality);

struct TrialMetrics {
  double fidelity = 0.0;
  double latency = 0.0;
  double throughput = 0.0;
  int codes_scheduled = 0;
  int codes_delivered = 0;
};

/// Run one seeded trial of a design.
TrialMetrics run_trial(const ScenarioParams& params, NetworkDesign design,
                       std::uint64_t seed);

/// Observed variant: the sink is handed down into the routing protocol
/// (LP solve metrics/events) and the simulator (per-slot events). A null
/// sink behaves exactly like the overload above.
TrialMetrics run_trial(const ScenarioParams& params, NetworkDesign design,
                       std::uint64_t seed, const obs::Sink& sink);

struct AggregateMetrics {
  util::RunningStat fidelity;
  util::RunningStat latency;
  util::RunningStat throughput;
};

/// How a batch of trials runs.
struct RunOptions {
  std::uint64_t seed = 20240607;  ///< base of the per-trial seed sequence
  int threads = 1;                ///< worker threads (clamped to [1, trials])
  /// Observability handle. Each trial records into private buffers that are
  /// merged into this sink in trial order after the workers join, so both
  /// the metrics document and the trace are thread-count invariant.
  obs::Sink sink{};
};

/// Run `trials` independent seeded trials and aggregate. Per-trial seeds
/// derive from options.seed alone, and per-trial results are merged in
/// trial order: the aggregate (and any observability output) is identical
/// for every options.threads value.
AggregateMetrics run_trials(const ScenarioParams& params,
                            NetworkDesign design, int trials,
                            const RunOptions& options = {});

/// One dynamic-traffic experiment: a random topology, the incremental
/// router over it, and an open-loop workload stream.
struct TrafficScenario {
  netsim::TopologySpec topology;
  routing::RoutingParams routing;
  netsim::WorkloadParams workload;
};

/// Traffic defaults for a (facility, connection) scenario: the batch
/// scenario's topology and routing, a Poisson stream sized to keep the
/// network busy without saturating it, and a short warm-up.
TrafficScenario make_traffic_scenario(FacilityLevel level,
                                      ConnectionQuality quality);

/// Run one seeded traffic trial. The sink observes the workload stream
/// (arrival/admit/blocked/depart events, "traffic.*" counters) and the
/// incremental router's "route.incremental.*" counters.
netsim::TrafficResult run_traffic_trial(const TrafficScenario& scenario,
                                        std::uint64_t seed,
                                        const obs::Sink& sink = {});

struct AggregateTraffic {
  util::RunningStat admitted_per_slot;
  util::RunningStat blocking_probability;
  util::RunningStat p50_latency;
  util::RunningStat p99_latency;
};

/// Traffic batch runner with the ScenarioParams overload's determinism
/// contract: per-trial seeds derive from options.seed alone and per-trial
/// observability buffers are merged in trial order, so the aggregate, the
/// metrics document and the trace are identical for every options.threads
/// value.
AggregateTraffic run_trials(const TrafficScenario& scenario, int trials,
                            const RunOptions& options = {});

}  // namespace surfnet::core
