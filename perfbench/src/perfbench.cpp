// Repository benchmark driver. Runs one named workload of the SurfNet
// pipeline on one thread for a fixed wall time, checks its outputs, and
// prints every metric followed by one JSON result line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// A workload is a fixed "pass" of trials generated from the seed; the run
// repeats the pass until the time is up. Quality metrics come from the
// first pass, so they are exact for a seed; every later repetition must
// reproduce its trial bitwise. --trace 0 measures the end-to-end metrics
// with no instrumentation. --trace 1 runs the same passes untraced and then
// traced, reports per-layer metrics from spans recorded around the calls
// into netsim, routing and decoder, and writes the spans to --spans-out.
// perfbench/README.md defines the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "host_clock.h"
#include "netsim/event_simulator.h"
#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/router.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace surfnet;

/// Seeds of the inputs that do not vary with --seed: the warm-up trials of
/// the set-up, and the traffic workload's fixed set of networks.
constexpr std::uint64_t kWarmupSeed = 0x5EED0001;
constexpr std::uint64_t kNetworkSeed = 0x5EED0002;
constexpr int kSetupsBefore = 3;

// ---------------------------------------------------------------------------
// Arguments, statistics, output.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "fig6a_batch|large_code_batch|traffic_stream --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be an unsigned integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0)
        usage("--seconds must be in (0, 120]");
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace must be 0 or 1");
      args.trace = value[0] == '1';
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Peak resident set of this program, from /proc/self/status. (getrusage's
/// ru_maxrss survives execve, so it would report the launcher's peak.)
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

/// Set-up timings in reference seconds. The workload is set up a few times
/// before the timed loop and once more at every pass boundary, so the
/// median samples the whole run rather than one moment.
struct Setups {
  std::function<void()> setup;
  HostClock* clock;
  std::vector<double> seconds{};

  void run() {
    clock->begin();
    setup();
    seconds.push_back(clock->end().ref_ms * 1e-3);
  }
  double median() const { return percentile(seconds, 0.5); }
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-40s %.9g %s\n", name.c_str(), value, unit.c_str());
  }
  void print_json(bool correct, long long attempted, long long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// Output checks: every failed check is reported and fails the run.
struct Checks {
  bool ok = true;
  void expect(bool condition, const std::string& what) {
    if (condition) return;
    if (ok) std::fprintf(stderr, "perfbench: output check failed:\n");
    std::fprintf(stderr, "  %s\n", what.c_str());
    ok = false;
  }
};

/// FNV-1a digest of the generated inputs, printed so a self-test can show
/// that the seed changes them.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const netsim::Topology& topology) {
    for (int v = 0; v < topology.num_nodes(); ++v) {
      add(static_cast<std::uint64_t>(topology.node(v).role));
      add(static_cast<std::uint64_t>(topology.node(v).storage_capacity));
    }
    for (int e = 0; e < topology.num_fibers(); ++e) {
      const auto& f = topology.fiber(e);
      add(static_cast<std::uint64_t>(f.a));
      add(static_cast<std::uint64_t>(f.b));
      add(f.fidelity);
    }
  }
};

/// Timings of a loop over the pass. Each trial of the pass runs once per
/// repetition; its time is the median over its repetitions, in wall and in
/// reference milliseconds (host_clock.h).
struct Timing {
  double wall_s = 0.0;
  long long runs = 0;           ///< trial executions, all repetitions
  std::vector<double> wall_ms;  ///< per trial of the pass
  std::vector<double> ref_ms;   ///< per trial of the pass
  long long probes = 0;
  double probe_median_ms = 0.0;

  static double sum_s(const std::vector<double>& ms) {
    double sum = 0.0;
    for (const double v : ms) sum += v;
    return sum * 1e-3;
  }
  double wall_pass_s() const { return sum_s(wall_ms); }
  double ref_pass_s() const { return sum_s(ref_ms); }
};

/// Runs trial after trial of the pass, wrapping around, until at least
/// `min_passes` whole passes and `seconds` of wall time are done (with
/// `whole_passes`, it stops only at a pass boundary). Trials are timed on
/// `clock`. The first pass fills `first` when it is empty; every other
/// execution must reproduce it. `setups`, when given, runs one more set-up
/// at each pass boundary.
template <typename Output, typename RunFn, typename SameFn>
Timing timed_loop(int per_pass, double seconds, int min_passes,
                  bool whole_passes, HostClock& clock,
                  std::vector<Output>& first, long long& failed,
                  Checks& checks, RunFn run, SameFn same,
                  Setups* setups = nullptr) {
  Timing timing;
  std::vector<std::vector<Reading>> readings(
      static_cast<std::size_t>(per_pass));
  const bool fill = first.empty();
  if (fill) first.resize(static_cast<std::size_t>(per_pass));
  const auto start = now_ns();
  for (long long n = 0;; ++n) {
    const auto i = static_cast<std::size_t>(n % per_pass);
    const long long pass = n / per_pass;
    if (pass >= min_passes && (!whole_passes || i == 0) &&
        seconds_since(start) >= seconds)
      break;
    if (setups && i == 0 && pass > 0) setups->run();
    clock.begin();
    try {
      Output out = run(static_cast<int>(i));
      readings[i].push_back(clock.end());
      if (fill && pass == 0) {
        first[i] = std::move(out);
      } else if (!same(out, first[i])) {
        ++failed;
        checks.expect(false, "trial " + std::to_string(i) +
                                 " did not reproduce its first output");
      }
    } catch (const std::exception& e) {
      clock.end();
      ++failed;
      checks.expect(false, "trial " + std::to_string(i) + " threw: " +
                               e.what());
    }
    ++timing.runs;
  }
  timing.wall_s = seconds_since(start);
  for (const auto& trial : readings) {
    std::vector<double> wall, ref;
    for (const Reading& r : trial) {
      wall.push_back(r.wall_ms);
      ref.push_back(r.ref_ms);
    }
    timing.wall_ms.push_back(percentile(wall, 0.5));
    timing.ref_ms.push_back(percentile(ref, 0.5));
  }
  timing.probes = clock.probes();
  timing.probe_median_ms = clock.probe_median_ms();
  return timing;
}

/// The exact quality metrics of a workload, computed from its first pass.
struct Quality {
  double fidelity = 0.0;
  double throughput = 0.0;
  double latency_slots = 0.0;
  double admitted_per_slot = 0.0;
  double blocking_probability = 0.0;
  double delivery_p99_slots = 0.0;
};

/// Prints how the run's timings were taken: the wall-clock figures that the
/// reference ones are scaled from, and the host probe.
void print_timing(const char* what, const Timing& timing,
                  std::size_t setups) {
  std::printf("untraced: %lld %s runs in %.3f s wall, %zu set-ups; %lld host "
              "probes, median %.4f ms against %.4f ms on the reference host; "
              "a %s's time is the median of its runs: %.6g s per pass in "
              "wall time, %.6g s in reference time\n",
              timing.runs, what, timing.wall_s, setups, timing.probes,
              timing.probe_median_ms, HostClock::kProbeReferenceMs, what,
              timing.wall_pass_s(), timing.ref_pass_s());
}

void report_end_to_end(Report& report, double setup_s, const Timing& timing,
                       double requests_per_pass, const Quality& q) {
  const double pass_s = timing.ref_pass_s();
  report.add("setup_s", setup_s, "s");
  report.add("trials_per_s",
             ratio(static_cast<double>(timing.ref_ms.size()), pass_s), "1/s");
  report.add("trial_p50_ms", percentile(timing.ref_ms, 0.50), "ms");
  report.add("trial_p99_ms", percentile(timing.ref_ms, 0.99), "ms");
  report.add("requests_per_s", ratio(requests_per_pass, pass_s), "1/s");
  report.add("fidelity", q.fidelity, "ratio");
  report.add("throughput", q.throughput, "ratio");
  report.add("latency_slots", q.latency_slots, "slots");
  report.add("admitted_per_slot", q.admitted_per_slot, "1/slot");
  report.add("blocking_probability", q.blocking_probability, "ratio");
  report.add("delivery_p99_slots", q.delivery_p99_slots, "slots");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Emits the span-derived metrics every workload shares: calls per pass,
/// self time per trial (per stream on traffic_stream), share of the traced
/// wall time, and latency percentiles of the per-call layers. Fails the
/// run when more than 5% of the traced wall time is outside every span.
void report_layers(Report& report, Checks& checks, const Tracer& tracer,
                   int passes, const Timing& untraced, const Timing& traced) {
  const auto stats =
      layer_stats(tracer.spans(), {"decoder.decode", "routing.admit"});
  const double wall_ns = traced.wall_s * 1e9;
  double accounted_ns = 0.0;
  for (const auto& [name, layer] : stats) accounted_ns += layer.self_ns;
  const auto emit = [&](const std::string& layer, bool latencies) {
    static const LayerStats kBypassed;
    const auto it = stats.find(layer);
    const LayerStats& s = it == stats.end() ? kBypassed : it->second;
    report.add(layer + ".calls", static_cast<double>(s.calls) / passes,
               "count");
    report.add(layer + ".self_ms",
               ratio(s.self_ns * 1e-6, static_cast<double>(traced.runs)),
               "ms");
    report.add(layer + ".share", ratio(s.self_ns, wall_ns), "ratio");
    if (latencies) {
      report.add(layer + ".p50_us",
                 percentile(s.durations_ns, 0.50) * 1e-3, "us");
      report.add(layer + ".p99_us",
                 percentile(s.durations_ns, 0.99) * 1e-3, "us");
    }
  };
  emit("netsim.topology", false);
  emit("routing.route", false);
  emit("netsim.simulate", false);
  emit("decoder.decode", true);
  emit("netsim.workload", false);
  emit("routing.admit", true);
  emit("routing.release", false);
  emit("routing.reoptimize", false);
  const double unaccounted = 1.0 - ratio(accounted_ns, wall_ns);
  report.add("trace_overhead",
             ratio(traced.wall_pass_s() - untraced.wall_pass_s(),
                   untraced.wall_pass_s()),
             "ratio");
  report.add("unaccounted_share", unaccounted, "ratio");
  checks.expect(unaccounted <= 0.05,
                "more than 5% of the traced wall time is in no layer span");
}

/// The "lp.*" counters of the registry attached to RoutingParams::sink.
void report_lp(Report& report, const obs::MetricsRegistry& lp, int passes,
               long long runs) {
  const auto per_pass = [&](const char* counter) {
    return static_cast<double>(lp.counter(counter)) / passes;
  };
  report.add("routing.lp.solves", per_pass("lp.solves"), "count");
  report.add("routing.lp.iterations", per_pass("lp.iterations"), "count");
  report.add("routing.lp.refactorizations", per_pass("lp.refactorizations"),
             "count");
  report.add("routing.lp.warm_starts", per_pass("lp.warm_starts"), "count");
  report.add("routing.lp.solve_ms",
             ratio(lp.timer_seconds("lp.solve_seconds") * 1e3,
                   static_cast<double>(runs)),
             "ms");
  report.add("routing.lp.iterations_per_solve",
             ratio(per_pass("lp.iterations"), per_pass("lp.solves")),
             "count");
}

void write_spans(const Args& args, const Tracer& tracer) {
  if (args.spans_out.empty()) return;
  std::FILE* out = std::fopen(args.spans_out.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return;
  }
  tracer.write_csv(out);
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// Batch workloads: topology -> requests -> routing::route -> simulator.

struct Cell {
  std::string name;
  core::ScenarioParams params;
  netsim::NetworkDesign design = netsim::NetworkDesign::SurfNet;
  int scenario = 0;  ///< (facility, quality) index shared by both designs
};

/// The exact outputs of one trial: the paper's metrics plus the counts the
/// library reports, compared bitwise across repetitions and runs.
struct TrialOutput {
  double fidelity = 0.0;
  double latency = 0.0;
  double throughput = 0.0;
  int codes_scheduled = 0;
  int codes_delivered = 0;
  int makespan = 0;  ///< slots until the trial's last code finished
  long lp_iterations = 0;
  int resolves = 0;
  bool greedy_fallback = false;
  std::vector<int> delivered_slots;  ///< per delivered code

  bool operator==(const TrialOutput&) const = default;
};

std::vector<Cell> fig6a_cells() {
  std::vector<Cell> cells;
  int scenario = 0;
  for (const auto level :
       {core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
        core::FacilityLevel::Insufficient})
    for (const auto quality :
         {core::ConnectionQuality::Good, core::ConnectionQuality::Poor}) {
      for (const auto design :
           {netsim::NetworkDesign::SurfNet, netsim::NetworkDesign::Raw}) {
        Cell cell;
        cell.name = std::string(core::to_string(level)) + "/" +
                    std::string(core::to_string(quality)) + "/" +
                    std::string(netsim::to_string(design));
        cell.params = core::make_scenario(level, quality);
        cell.design = design;
        cell.scenario = scenario;
        cells.push_back(std::move(cell));
      }
      ++scenario;
    }
  return cells;
}

/// Sufficient/Good with the SurfNet design at code distance 13: storage,
/// pair capacity and pair rate scale with the code's qubit counts.
std::vector<Cell> large_code_cells() {
  constexpr int kDistance = 13;
  Cell cell;
  cell.params = core::make_scenario(core::FacilityLevel::Sufficient,
                                    core::ConnectionQuality::Good);
  auto& p = cell.params;
  const int base = p.simulation.code_distance;
  const double node_scale =
      static_cast<double>(routing::RoutingParams::total_qubits_for(kDistance)) /
      routing::RoutingParams::total_qubits_for(base);
  const double pair_scale =
      static_cast<double>(routing::RoutingParams::core_qubits_for(kDistance)) /
      routing::RoutingParams::core_qubits_for(base);
  p.topology.storage_capacity = static_cast<int>(
      std::lround(p.topology.storage_capacity * node_scale));
  p.topology.entanglement_capacity = static_cast<int>(
      std::lround(p.topology.entanglement_capacity * pair_scale));
  p.simulation.entanglement_rate *= pair_scale;
  p.simulation.code_distance = kDistance;
  p.routing.core_qubits = routing::RoutingParams::core_qubits_for(kDistance);
  p.routing.support_qubits =
      routing::RoutingParams::total_qubits_for(kDistance) -
      p.routing.core_qubits;
  p.max_codes_per_request = 8;
  cell.name = "sufficient/good/surfnet/d13";
  return {cell};
}

class BatchWorkload {
 public:
  BatchWorkload(std::vector<Cell> cells, int trials_per_pass,
                std::uint64_t seed)
      : cells_(std::move(cells)), traced_decoder_(decoder_, tracer_) {
    // Cells of one scenario share trial seeds, so both designs route the
    // same topologies and requests (the paper's paired comparison).
    util::Rng seeder(seed);
    seeds_.resize(static_cast<std::size_t>(trials_per_pass));
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      const std::size_t c = i % cells_.size();
      seeds_[i] = c > 0 && cells_[c].scenario == cells_[c - 1].scenario
                      ? seeds_[i - 1]
                      : seeder();
    }
    for (const auto design :
         {netsim::NetworkDesign::SurfNet, netsim::NetworkDesign::Raw}) {
      plain_.push_back(netsim::make_simulator(design, decoder_,
                                              netsim::SimEngine::Event));
      traced_.push_back(netsim::make_simulator(design, traced_decoder_,
                                               netsim::SimEngine::Event));
    }
  }

  int trials_per_pass() const { return static_cast<int>(seeds_.size()); }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(int i) const {
    return cells_[static_cast<std::size_t>(i) % cells_.size()];
  }
  std::uint64_t seed(int i) const {
    return seeds_[static_cast<std::size_t>(i)];
  }
  const Tracer& tracer() const { return tracer_; }

  TrialOutput run(int i, bool traced, obs::MetricsRegistry* lp_metrics) {
    return run_trial(cell(i), seed(i), i, traced, lp_metrics);
  }

  /// Fills lazy state and caches: trials from fixed seeds, cycling cells.
  void warm_up() {
    util::Rng seeder(kWarmupSeed);
    for (int i = 0; i < std::max(num_cells(), 8); ++i)
      run_trial(cell(i), seeder(), -1, false, nullptr);
  }

 private:
  /// One trial, composed from the library's public functions exactly as
  /// core::run_trial composes them. With `traced`, spans are recorded and
  /// the LP counters go to `lp_metrics` (attached to RoutingParams only).
  TrialOutput run_trial(const Cell& c, std::uint64_t seed, int id,
                        bool traced, obs::MetricsRegistry* lp_metrics) {
    Tracer* t = traced ? &tracer_ : nullptr;
    if (t) t->set_trial(id);
    util::Rng rng(seed);
    TrialOutput out;
    netsim::Topology topology;
    std::vector<netsim::Request> requests;
    {
      ScopedSpan span(t, "netsim.topology");
      topology = netsim::make_random_topology(c.params.topology, rng);
      requests = netsim::random_requests(topology, c.params.num_requests,
                                         c.params.max_codes_per_request, rng);
    }
    routing::RoutingParams routing = c.params.routing;
    routing.dual_channel = c.design == netsim::NetworkDesign::SurfNet;
    if (traced) routing.sink.metrics = lp_metrics;
    routing::RouteResult routed;
    {
      ScopedSpan span(t, "routing.route");
      routed = routing::route(topology, requests, routing, rng);
    }
    out.throughput = routed.schedule.throughput();
    out.lp_iterations = routed.cold_iterations + routed.warm_iterations;
    out.resolves = routed.resolves;
    out.greedy_fallback = routed.greedy_fallback;
    netsim::SimulationResult sim;
    {
      ScopedSpan span(t, "netsim.simulate");
      const auto& simulator =
          (traced ? traced_ : plain_)[c.design == netsim::NetworkDesign::Raw];
      sim = simulator->run(topology, routed.schedule, c.params.simulation,
                           rng);
    }
    out.fidelity = sim.fidelity();
    out.latency = sim.avg_latency();
    out.codes_scheduled = sim.codes_scheduled;
    out.codes_delivered = sim.codes_delivered;
    // Codes of one request run one after another, so the trial ends when
    // the request with the most in-flight slots in total ends.
    std::map<int, int> request_slots;
    for (const auto& code : sim.codes) {
      request_slots[code.request] += code.slots;
      if (code.outcome != netsim::CodeOutcome::TimedOut)
        out.delivered_slots.push_back(code.slots);
    }
    for (const auto& [request, slots] : request_slots)
      out.makespan = std::max(out.makespan, slots);
    return out;
  }

  std::vector<Cell> cells_;
  std::vector<std::uint64_t> seeds_;
  decoder::SurfNetDecoder decoder_;
  Tracer tracer_;
  TracingDecoder traced_decoder_;
  std::vector<std::unique_ptr<netsim::Simulator>> plain_;
  std::vector<std::unique_ptr<netsim::Simulator>> traced_;
};

/// Quality of the first pass. SurfNet trials carry the metrics. SurfNet
/// must beat Raw on fidelity over all scenarios, and in no scenario may
/// Raw be better by more than three standard errors of the paired
/// (same-seed) difference: on good fibers the two designs are within
/// sampling noise of each other at this trial count.
Quality batch_quality(const BatchWorkload& w,
                      const std::vector<TrialOutput>& first, Checks& checks) {
  double fid = 0, lat = 0, thr = 0, delivered = 0, makespan = 0;
  long long with_codes = 0, surfnet = 0;
  std::vector<double> delivered_slots;
  std::map<int, std::vector<double>> paired_diff;
  double design_fid[2] = {0, 0};
  long long design_n[2] = {0, 0};
  for (int i = 0; i < w.trials_per_pass(); ++i) {
    const Cell& c = w.cell(i);
    const auto& o = first[static_cast<std::size_t>(i)];
    const int raw = c.design == netsim::NetworkDesign::Raw;
    if (o.codes_delivered > 0) {
      design_fid[raw] += o.fidelity;
      ++design_n[raw];
    }
    if (raw) {
      const auto& s = first[static_cast<std::size_t>(i - 1)];
      if (o.codes_delivered > 0 && s.codes_delivered > 0)
        paired_diff[c.scenario].push_back(s.fidelity - o.fidelity);
      continue;
    }
    ++surfnet;
    thr += o.throughput;
    delivered += o.codes_delivered;
    makespan += o.makespan;
    if (o.codes_delivered > 0) {
      ++with_codes;
      fid += o.fidelity;
      lat += o.latency;
    }
    for (const int s : o.delivered_slots) delivered_slots.push_back(s);
  }
  if (design_n[1] > 0) {
    const double s = ratio(design_fid[0], static_cast<double>(design_n[0]));
    const double r = ratio(design_fid[1], static_cast<double>(design_n[1]));
    std::printf("fidelity over all scenarios: SurfNet %.4f, Raw %.4f\n", s,
                r);
    checks.expect(s > r, "SurfNet fidelity not above Raw");
  }
  for (const auto& [scenario, diff] : paired_diff) {
    const double n = static_cast<double>(diff.size());
    double mean = 0, var = 0;
    for (const double d : diff) mean += d / n;
    for (const double d : diff) var += (d - mean) * (d - mean);
    const double se = n > 1 ? std::sqrt(var / (n - 1) / n) : 0.0;
    std::printf("scenario %d: SurfNet - Raw fidelity %+.4f (se %.4f, %zu "
                "pairs)\n",
                scenario, mean, se, diff.size());
    checks.expect(mean > -3.0 * se,
                  "Raw fidelity significantly above SurfNet in scenario " +
                      std::to_string(scenario));
  }
  Quality q;
  q.fidelity = ratio(fid, static_cast<double>(with_codes));
  q.throughput = ratio(thr, static_cast<double>(surfnet));
  q.latency_slots = ratio(lat, static_cast<double>(with_codes));
  q.admitted_per_slot = ratio(delivered, makespan);
  q.blocking_probability = 1.0 - q.throughput;
  q.delivery_p99_slots = percentile(delivered_slots, 0.99);
  return q;
}

int run_batch(const Args& args, std::vector<Cell> (*make_cells)(),
              int trials_per_pass) {
  Checks checks;
  long long failed = 0;
  std::unique_ptr<BatchWorkload> w;
  HostClock clock(true);
  // Set-up: scenarios, trial seeds, decoder and simulators, warm-up.
  Setups setups{[&] {
    w = std::make_unique<BatchWorkload>(make_cells(), trials_per_pass,
                                        args.seed);
    w->warm_up();
  }, &clock};
  for (int r = 0; r < (args.trace ? 1 : kSetupsBefore); ++r) setups.run();

  std::vector<TrialOutput> first;
  const auto same = [](const TrialOutput& a, const TrialOutput& b) {
    return a == b;
  };
  const Timing timing = timed_loop<TrialOutput>(
      w->trials_per_pass(), args.trace ? args.seconds / 2 : args.seconds, 1,
      args.trace, clock, first, failed, checks,
      [&](int i) { return w->run(i, false, nullptr); }, same,
      args.trace ? nullptr : &setups);

  // The composed pipeline equals core::run_trial on a sample of trials in
  // every cell; the digest covers the sample's generated inputs.
  Digest digest;
  const int sample = std::min(w->trials_per_pass(), 4 * w->num_cells());
  for (int i = 0; i < sample; ++i) {
    const Cell& c = w->cell(i);
    const auto& mine = first[static_cast<std::size_t>(i)];
    const auto ref = core::run_trial(c.params, c.design, w->seed(i));
    checks.expect(ref.fidelity == mine.fidelity &&
                      ref.latency == mine.latency &&
                      ref.throughput == mine.throughput &&
                      ref.codes_scheduled == mine.codes_scheduled &&
                      ref.codes_delivered == mine.codes_delivered,
                  "trial " + std::to_string(i) + " (" + c.name +
                      ") differs from core::run_trial");
    util::Rng rng(w->seed(i));
    const auto topology = netsim::make_random_topology(c.params.topology, rng);
    digest.add(topology);
    for (const auto& r : netsim::random_requests(
             topology, c.params.num_requests, c.params.max_codes_per_request,
             rng)) {
      digest.add(static_cast<std::uint64_t>(r.src));
      digest.add(static_cast<std::uint64_t>(r.dst));
      digest.add(static_cast<std::uint64_t>(r.codes));
    }
  }
  for (const auto& c : w->cells())
    checks.expect(!c.params.simulation.sink.enabled(),
                  "simulation sink attached in " + c.name);
  const Quality quality = batch_quality(*w, first, checks);

  std::printf("workload %s: %d cell(s), %d trials per pass, seed %llu, "
              "inputs digest %016llx\n",
              args.workload.c_str(), w->num_cells(), w->trials_per_pass(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest.h));
  print_timing("trial", timing, setups.seconds.size());

  Report report;
  long long attempted = timing.runs;
  if (!args.trace) {
    report_end_to_end(
        report, setups.median(), timing,
        static_cast<double>(w->trials_per_pass()) *
            w->cell(0).params.num_requests,
        quality);
  } else {
    // The same passes again with spans and LP counters on, and no host
    // probes, so that the spans cover the traced wall time.
    const int passes = static_cast<int>(timing.runs / w->trials_per_pass());
    obs::MetricsRegistry lp;
    HostClock wall_clock(false);
    std::vector<TrialOutput> traced_first;
    const Timing traced = timed_loop<TrialOutput>(
        w->trials_per_pass(), 0.0, passes, true, wall_clock, traced_first,
        failed, checks, [&](int i) { return w->run(i, true, &lp); }, same);
    attempted += traced.runs;
    for (std::size_t i = 0; i < first.size(); ++i)
      checks.expect(first[i] == traced_first[i],
                    "traced trial " + std::to_string(i) +
                        " differs from the untraced one");
    std::printf("traced: %lld trial runs in %.3f s wall, %zu spans\n",
                traced.runs, traced.wall_s, w->tracer().spans().size());

    report_layers(report, checks, w->tracer(), passes, timing, traced);
    long long lp_iterations = 0, resolves = 0, fallbacks = 0, scheduled = 0,
              delivered = 0;
    for (const auto& o : first) {
      lp_iterations += o.lp_iterations;
      resolves += o.resolves;
      fallbacks += o.greedy_fallback ? 1 : 0;
      scheduled += o.codes_scheduled;
      delivered += o.codes_delivered;
    }
    const auto count = [](long long v) { return static_cast<double>(v); };
    report.add("routing.route.lp_iterations", count(lp_iterations), "count");
    report.add("routing.route.resolves", count(resolves), "count");
    report.add("routing.route.greedy_fallbacks", count(fallbacks), "count");
    report_lp(report, lp, passes, traced.runs);
    const auto decodes = count(std::count_if(
        w->tracer().spans().begin(), w->tracer().spans().end(),
        [](const Span& s) {
          return std::strcmp(s.name, "decoder.decode") == 0;
        }));
    report.add("netsim.codes_scheduled", count(scheduled), "count");
    report.add("netsim.codes_delivered", count(delivered), "count");
    report.add("netsim.delivered_ratio",
               ratio(count(delivered), count(scheduled)), "ratio");
    report.add("netsim.decodes_per_code",
               ratio(decodes / passes, count(delivered)), "count");
    // The online router's counters: this workload bypasses it.
    for (const char* name :
         {"routing.admit.yield", "routing.incremental.lp_yield"})
      report.add(name, 0.0, "ratio");
    for (const char* name :
         {"routing.incremental.greedy_admits",
          "routing.incremental.warm_admits", "routing.incremental.cold_admits",
          "routing.incremental.lp_rejects",
          "routing.incremental.saturation_skips",
          "routing.incremental.infeasible_skips",
          "routing.incremental.warm_solves", "routing.incremental.cold_solves",
          "routing.incremental.warm_iterations"})
      report.add(name, 0.0, "count");
    write_spans(args, w->tracer());
  }

  report.print_json(checks.ok, attempted, failed);
  return checks.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traffic workload: topology -> IncrementalRouter -> netsim::run_traffic.

struct StreamOutput {
  netsim::TrafficResult result;
  long long admit_calls = 0;
  long long admits = 0;
  double fidelity_sum = 0.0;
  routing::IncrementalRouter::Stats stats;
  bool drained = false;  ///< router capacity equals a fresh tracker's
};

bool same_result(const netsim::TrafficResult& a,
                 const netsim::TrafficResult& b) {
  return a.arrivals == b.arrivals && a.admitted == b.admitted &&
         a.blocked == b.blocked && a.departures == b.departures &&
         a.last_slot == b.last_slot && a.measured_slots == b.measured_slots &&
         a.measured_arrivals == b.measured_arrivals &&
         a.measured_admitted == b.measured_admitted &&
         a.measured_blocked == b.measured_blocked &&
         a.measured_departures == b.measured_departures &&
         std::equal(std::begin(a.blocked_by), std::end(a.blocked_by),
                    std::begin(b.blocked_by)) &&
         std::equal(std::begin(a.admitted_by), std::end(a.admitted_by),
                    std::begin(b.admitted_by)) &&
         a.latency_hist == b.latency_hist &&
         a.latency_count == b.latency_count &&
         a.latency_total == b.latency_total;
}

bool same_stats(const routing::IncrementalRouter::Stats& a,
                const routing::IncrementalRouter::Stats& b) {
  return a.greedy_admits == b.greedy_admits &&
         a.warm_admits == b.warm_admits && a.cold_admits == b.cold_admits &&
         a.lp_rejects == b.lp_rejects &&
         a.saturation_skips == b.saturation_skips &&
         a.infeasible_skips == b.infeasible_skips &&
         a.profile_changes == b.profile_changes &&
         a.cold_solves == b.cold_solves && a.warm_solves == b.warm_solves &&
         a.cold_iterations == b.cold_iterations &&
         a.warm_iterations == b.warm_iterations;
}

bool same_stream(const StreamOutput& a, const StreamOutput& b) {
  return same_result(a.result, b.result) && a.admit_calls == b.admit_calls &&
         a.admits == b.admits && a.fidelity_sum == b.fidelity_sum &&
         same_stats(a.stats, b.stats) && a.drained == b.drained;
}

/// Streams of requests over a fixed set of networks: stream i runs on
/// network i (generated from a fixed seed) with arrivals drawn from the
/// i-th seed derived from --seed.
class TrafficWorkload {
 public:
  TrafficWorkload(int streams_per_pass, long long requests_per_stream,
                  std::uint64_t seed)
      : scenario_(core::make_traffic_scenario(core::FacilityLevel::Sufficient,
                                              core::ConnectionQuality::Good)) {
    scenario_.topology.num_nodes = 24;
    scenario_.workload.arrival_rate = 2.0;
    scenario_.workload.max_requests = requests_per_stream;
    // Request-bounded: the horizon lies far beyond the stream's end.
    scenario_.workload.horizon_slots =
        static_cast<int>(requests_per_stream / 2) * 4 + 100000;
    util::Rng networks(kNetworkSeed);
    util::Rng streams(seed);
    for (int i = 0; i < streams_per_pass; ++i) {
      network_seeds_.push_back(networks());
      stream_seeds_.push_back(streams());
    }
  }

  int trials_per_pass() const {
    return static_cast<int>(stream_seeds_.size());
  }
  const core::TrafficScenario& scenario() const { return scenario_; }
  const Tracer& tracer() const { return tracer_; }
  std::uint64_t stream_seed(int i) const {
    return stream_seeds_[static_cast<std::size_t>(i)];
  }
  netsim::Topology network(int i) const {
    util::Rng rng(network_seeds_[static_cast<std::size_t>(i)]);
    return netsim::make_random_topology(scenario_.topology, rng);
  }

  /// Stream i. The provider ticks `clock` between admits; the traced run
  /// passes none.
  StreamOutput run(int i, bool traced, obs::MetricsRegistry* lp_metrics,
                   HostClock* clock) {
    return run_stream(i, stream_seed(i), traced, lp_metrics, clock, 0);
  }

  /// A short stream on the first network from a fixed seed.
  void warm_up(HostClock* clock) {
    run_stream(0, kWarmupSeed, false, nullptr, clock,
               scenario_.workload.max_requests / 10);
  }

  /// The first stream through the undecorated router: the decorator must
  /// not change it.
  netsim::TrafficResult reference(int i) const {
    const auto topology = network(i);
    routing::IncrementalRouter router(topology, scenario_.routing);
    util::Rng rng(stream_seed(i));
    return netsim::run_traffic(topology, router, scenario_.workload, rng,
                               netsim::SimEngine::Event);
  }

 private:
  /// One stream, composed as core::run_traffic_trial composes it except
  /// that the network and the arrivals draw from separate seeds. The
  /// provider decorator records the admitted routes and, when traced,
  /// spans. `max_requests` > 0 shortens the stream.
  StreamOutput run_stream(int i, std::uint64_t seed, bool traced,
                          obs::MetricsRegistry* lp_metrics, HostClock* clock,
                          long long max_requests) {
    Tracer* t = traced ? &tracer_ : nullptr;
    if (t) t->set_trial(i);
    StreamOutput out;
    netsim::Topology topology;
    {
      ScopedSpan span(t, "netsim.topology");
      topology = network(i);
    }
    routing::RoutingParams routing = scenario_.routing;
    if (traced) routing.sink.metrics = lp_metrics;
    netsim::WorkloadParams workload = scenario_.workload;
    if (max_requests > 0) workload.max_requests = max_requests;
    routing::IncrementalRouter router(topology, routing);
    ObservedProvider provider(router, t, clock);
    util::Rng rng(seed);
    {
      ScopedSpan span(t, "netsim.workload");
      out.result = netsim::run_traffic(topology, provider, workload, rng,
                                       netsim::SimEngine::Event);
    }
    out.admit_calls = provider.admit_calls();
    out.admits = provider.admits();
    out.fidelity_sum = provider.fidelity_sum();
    out.stats = router.stats();
    // After the drain every committed capacity must be back.
    const routing::CapacityTracker fresh(topology, routing);
    out.drained = true;
    for (int v = 0; v < topology.num_nodes(); ++v)
      out.drained &=
          router.tracker().node_remaining(v) == fresh.node_remaining(v);
    for (int e = 0; e < topology.num_fibers(); ++e)
      out.drained &= router.tracker().fiber_pairs_remaining(e) ==
                     fresh.fiber_pairs_remaining(e);
    return out;
  }

  core::TrafficScenario scenario_;
  std::vector<std::uint64_t> network_seeds_;
  std::vector<std::uint64_t> stream_seeds_;
  Tracer tracer_;
};

int run_traffic(const Args& args, int streams_per_pass,
                long long requests_per_stream) {
  Checks checks;
  long long failed = 0;
  std::unique_ptr<TrafficWorkload> w;
  HostClock clock(true);
  // Set-up: scenario, network and stream seeds, warm-up stream.
  Setups setups{[&] {
    w = std::make_unique<TrafficWorkload>(streams_per_pass,
                                          requests_per_stream, args.seed);
    w->warm_up(&clock);
  }, &clock};
  for (int r = 0; r < (args.trace ? 1 : kSetupsBefore); ++r) setups.run();

  std::vector<StreamOutput> first;
  const Timing timing = timed_loop<StreamOutput>(
      w->trials_per_pass(), args.trace ? args.seconds / 2 : args.seconds, 1,
      args.trace, clock, first, failed, checks,
      [&](int i) { return w->run(i, false, nullptr, &clock); }, same_stream,
      args.trace ? nullptr : &setups);

  // Stream tallies, the drain, and decorator transparency.
  Digest digest;
  for (int i = 0; i < w->trials_per_pass(); ++i) {
    const auto& o = first[static_cast<std::size_t>(i)];
    const auto& r = o.result;
    const std::string id = "stream " + std::to_string(i);
    checks.expect(r.arrivals == r.admitted + r.blocked,
                  id + ": arrivals != admitted + blocked");
    checks.expect(r.departures == r.admitted, id + ": departures != admitted");
    checks.expect(o.admits == r.admitted, id + ": provider admits != admitted");
    checks.expect(o.drained, id + ": capacity not fully released after drain");
    digest.add(w->network(i));
    digest.add(w->stream_seed(i));
  }
  checks.expect(same_result(w->reference(0), first[0].result),
                "stream 0 differs from the undecorated router's");
  checks.expect(!w->scenario().workload.sink.enabled(),
                "workload sink attached");

  std::printf("workload %s: %d streams of %lld requests per pass, seed %llu, "
              "inputs digest %016llx\n",
              args.workload.c_str(), w->trials_per_pass(), requests_per_stream,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(digest.h));
  print_timing("stream", timing, setups.seconds.size());

  // Exact quality metrics over the first pass.
  long long arrivals = 0, m_arrivals = 0, m_admitted = 0, m_blocked = 0,
            admits = 0, admit_calls = 0;
  double fidelity_sum = 0, measured_slots = 0;
  netsim::TrafficResult merged;
  routing::IncrementalRouter::Stats stats;
  for (const auto& o : first) {
    const auto& r = o.result;
    arrivals += r.arrivals;
    m_arrivals += r.measured_arrivals;
    m_admitted += r.measured_admitted;
    m_blocked += r.measured_blocked;
    measured_slots += r.measured_slots;
    merged.latency_count += r.latency_count;
    merged.latency_total += r.latency_total;
    merged.latency_hist.resize(
        std::max(merged.latency_hist.size(), r.latency_hist.size()), 0);
    for (std::size_t b = 0; b < r.latency_hist.size(); ++b)
      merged.latency_hist[b] += r.latency_hist[b];
    admits += o.admits;
    admit_calls += o.admit_calls;
    fidelity_sum += o.fidelity_sum;
    stats.greedy_admits += o.stats.greedy_admits;
    stats.warm_admits += o.stats.warm_admits;
    stats.cold_admits += o.stats.cold_admits;
    stats.lp_rejects += o.stats.lp_rejects;
    stats.saturation_skips += o.stats.saturation_skips;
    stats.infeasible_skips += o.stats.infeasible_skips;
    stats.warm_solves += o.stats.warm_solves;
    stats.cold_solves += o.stats.cold_solves;
    stats.warm_iterations += o.stats.warm_iterations;
  }
  const auto count = [](long long v) { return static_cast<double>(v); };

  // Operations are arrivals; a stream that fails counts all its arrivals.
  const double per_stream = ratio(count(arrivals), w->trials_per_pass());
  long long attempted =
      std::llround(static_cast<double>(timing.runs) * per_stream);
  Report report;
  if (!args.trace) {
    Quality q;
    q.fidelity = ratio(fidelity_sum, count(admits));
    q.throughput = ratio(count(m_admitted), count(m_arrivals));
    q.latency_slots = merged.mean_latency();
    q.admitted_per_slot = ratio(count(m_admitted), measured_slots);
    q.blocking_probability = ratio(count(m_blocked), count(m_arrivals));
    q.delivery_p99_slots = merged.latency_percentile(0.99);
    report_end_to_end(report, setups.median(), timing, count(arrivals), q);
  } else {
    const int passes = static_cast<int>(timing.runs / w->trials_per_pass());
    obs::MetricsRegistry lp;
    HostClock wall_clock(false);
    std::vector<StreamOutput> traced_first;
    const Timing traced = timed_loop<StreamOutput>(
        w->trials_per_pass(), 0.0, passes, true, wall_clock, traced_first,
        failed, checks, [&](int i) { return w->run(i, true, &lp, nullptr); },
        same_stream);
    attempted += std::llround(static_cast<double>(traced.runs) * per_stream);
    for (std::size_t i = 0; i < first.size(); ++i)
      checks.expect(same_stream(first[i], traced_first[i]),
                    "traced stream " + std::to_string(i) +
                        " differs from the untraced one");
    std::printf("traced: %lld stream runs in %.3f s wall, %zu spans\n",
                traced.runs, traced.wall_s, w->tracer().spans().size());

    report_layers(report, checks, w->tracer(), passes, timing, traced);
    // The batch pipeline's counters: this workload bypasses it.
    for (const char* name :
         {"routing.route.lp_iterations", "routing.route.resolves",
          "routing.route.greedy_fallbacks"})
      report.add(name, 0.0, "count");
    report_lp(report, lp, passes, traced.runs);
    for (const char* name :
         {"netsim.codes_scheduled", "netsim.codes_delivered"})
      report.add(name, 0.0, "count");
    report.add("netsim.delivered_ratio", 0.0, "ratio");
    report.add("netsim.decodes_per_code", 0.0, "count");
    report.add("routing.admit.yield", ratio(count(admits), count(admit_calls)),
               "ratio");
    report.add("routing.incremental.lp_yield",
               ratio(count(stats.warm_admits + stats.cold_admits),
                     count(stats.warm_solves + stats.cold_solves)),
               "ratio");
    report.add("routing.incremental.greedy_admits",
               count(stats.greedy_admits), "count");
    report.add("routing.incremental.warm_admits", count(stats.warm_admits),
               "count");
    report.add("routing.incremental.cold_admits", count(stats.cold_admits),
               "count");
    report.add("routing.incremental.lp_rejects", count(stats.lp_rejects),
               "count");
    report.add("routing.incremental.saturation_skips",
               count(stats.saturation_skips), "count");
    report.add("routing.incremental.infeasible_skips",
               count(stats.infeasible_skips), "count");
    report.add("routing.incremental.warm_solves", count(stats.warm_solves),
               "count");
    report.add("routing.incremental.cold_solves", count(stats.cold_solves),
               "count");
    report.add("routing.incremental.warm_iterations",
               count(stats.warm_iterations), "count");
    write_spans(args, w->tracer());
  }
  failed = std::llround(static_cast<double>(failed) * per_stream);

  report.print_json(checks.ok, attempted, failed);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.workload == "fig6a_batch")
    return run_batch(args, fig6a_cells, 1440);
  if (args.workload == "large_code_batch")
    return run_batch(args, large_code_cells, 2000);
  if (args.workload == "traffic_stream") return run_traffic(args, 10, 2000);
  usage("unknown workload");
}
