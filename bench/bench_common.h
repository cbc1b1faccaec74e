#pragma once

// Shared helpers for the reproduction benches. Every bench binary prints
// the rows/series of one paper table or figure; pass --trials N to change
// the Monte-Carlo budget and --seed S to change the base seed. Paper-scale
// budgets (e.g. the 1080 trials of Fig. 6/7) are available via --full.
//
// --threads T fans a bench's Monte-Carlo trials out over T worker threads
// (util/parallel.h); results are bitwise-identical for every T.
// --threads 0 or less resolves to the machine's hardware concurrency.
// bench_traffic exits 2 on any value but 1: each of its rows is one
// open-loop stream timed on the calling thread.
//
// --metrics-out FILE / --trace-out FILE attach the observability layer:
// the bench's sink() then carries a live metrics registry and/or JSONL
// trace writer (see src/obs/) that the engines under test report into.
//
// Every bench prints a text table. Each one declares which other output
// formats it prints (--csv, --json); ArgParser refuses the flag of any
// format the bench does not declare. Machine-readable output (--json)
// uses one shared envelope across the benches that print it, so saved
// outputs can be compared generically (scripts/bench_compare.py) and
// validated (--validate):
//   {"bench": "<name>", "schema_version": 1, "results": [<records>...]}
// where each record is a flat JSON object whose keys are stable per bench.
//
// Numbers parse as a whole token (util/parse.h, shared with surfnet_cli);
// a bad or missing value exits 2 with one line on stderr that names the
// flag.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/surfnet.h"
#include "decoder/surfnet_decoder.h"
#include "netsim/simulator.h"
#include "obs/session.h"
#include "obs/sink.h"
#include "routing/greedy.h"
#include "util/parallel.h"
#include "util/parse.h"

namespace surfnet::bench {

/// Version of the shared --json envelope (bumped on breaking changes).
inline constexpr int kJsonSchemaVersion = 1;

/// core::run_trials(params, SurfNet, trials, options) with the
/// hierarchical greedy scheduler (routing::route_greedy) in place of the
/// LP router: the same seeds, sinks, runner and aggregation.
inline core::AggregateMetrics run_greedy_trials(
    const core::ScenarioParams& params, int trials,
    const core::RunOptions& options) {
  std::vector<core::TrialMetrics> results(static_cast<std::size_t>(trials));
  core::run_in_trial_order(
      trials, options,
      [&](std::size_t t, std::uint64_t seed, const obs::Sink& sink) {
        util::Rng rng(seed);
        const auto topology =
            netsim::make_random_topology(params.topology, rng);
        const auto requests = netsim::random_requests(
            topology, params.num_requests, params.max_codes_per_request, rng);
        auto routing = params.routing;
        routing.sink = sink;
        const auto schedule =
            routing::route_greedy(topology, requests, routing, rng);
        auto simulation = params.simulation;
        simulation.sink = sink;
        const decoder::SurfNetDecoder dec;
        const auto sim = netsim::simulate_surfnet(topology, schedule,
                                                  simulation, dec, rng);
        results[t] = {.fidelity = sim.fidelity(),
                      .latency = sim.avg_latency(),
                      .throughput = schedule.throughput(),
                      .codes_scheduled = sim.codes_scheduled,
                      .codes_delivered = sim.codes_delivered};
      });
  core::AggregateMetrics aggregate;
  for (const auto& metrics : results) aggregate.add(metrics);
  return aggregate;
}

/// Output formats a bench prints besides its text table.
struct Formats {
  bool csv = false;   ///< --csv: the tables as CSV
  bool json = false;  ///< --json: the shared envelope
};

/// Command-line front end shared by every bench binary: parses the common
/// flag set, owns the observability session, and prints the shared JSON
/// envelope. Construction parses (and exits on --help or a bad flag).
class ArgParser {
 public:
  ArgParser(std::string bench_name, int argc, char** argv, Formats formats)
      : bench_(std::move(bench_name)), formats_(formats) {
    std::string metrics_out;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
      const char* flag = argv[i];
      const auto is = [&](const char* name) {
        return std::strcmp(flag, name) == 0;
      };
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) fail(std::string(flag) + " needs a value");
        return argv[++i];
      };
      const auto require_declared = [&](bool declared) {
        if (!declared)
          fail(std::string(flag) + " unsupported: this bench prints " +
               printed_formats());
      };
      if (is("--trials")) {
        trials_ = parse_int(flag, value(), 0, "an integer >= 0");
      } else if (is("--seed")) {
        const char* v = value();
        if (!util::parse_whole(v, seed_))
          reject(flag, "an unsigned 64-bit integer", v);
      } else if (is("--threads")) {
        threads_arg_ = parse_int(flag, value(), INT_MIN, "an integer");
        threads_ = util::resolve_threads(threads_arg_);
      } else if (is("--metrics-out")) {
        metrics_out = value();
      } else if (is("--trace-out")) {
        trace_out = value();
      } else if (is("--full")) {
        full_ = true;
      } else if (is("--csv")) {
        require_declared(formats_.csv);
        csv_ = true;
      } else if (is("--json")) {
        require_declared(formats_.json);
        json_ = true;
      } else if (is("--help")) {
        print_usage(argv[0]);
        std::exit(0);
      } else {
        fail(std::string("unknown argument '") + flag + "' (try --help)");
      }
    }
    session_ = std::make_unique<obs::FileSession>(metrics_out, trace_out);
  }

  const std::string& bench() const { return bench_; }
  int trials() const { return trials_; }
  std::uint64_t seed() const { return seed_; }
  int threads() const { return threads_; }
  bool full() const { return full_; }
  bool csv() const { return csv_; }
  bool json() const { return json_; }

  /// --trials wins; otherwise the bench default or the --full budget.
  int resolve_trials(int default_trials, int full_trials) const {
    if (trials_ > 0) return trials_;
    return full_ ? full_trials : default_trials;
  }

  /// The observability handle built from --metrics-out / --trace-out
  /// (null when neither flag was given).
  obs::Sink sink() { return session_->sink(); }

  /// For a bench that runs everything on the calling thread: exits 2
  /// unless --threads is absent or 1.
  void require_one_thread() const {
    if (threads_arg_ != 1)
      fail("--threads " + std::to_string(threads_arg_) +
           " unsupported: this bench runs on the calling thread only");
  }

  /// For a bench whose workload is fixed: exits 2 on --full or on a
  /// nonzero --trials (0 means the bench default).
  void require_fixed_workload() const {
    if (trials_ != 0)
      fail("--trials " + std::to_string(trials_) +
           " unsupported: this bench runs a fixed workload");
    if (full_) fail("--full unsupported: this bench runs a fixed workload");
  }

  /// {--seed, --threads, sink()}: the options both trial runners take.
  core::RunOptions options() {
    return {.seed = seed_, .threads = threads_, .sink = sink()};
  }

  /// Flush the observability outputs (also runs at destruction).
  void finish_observability() { session_->finish(); }

  /// Print the shared JSON envelope around pre-rendered flat records.
  void print_json_envelope(const std::vector<std::string>& records,
                           std::FILE* out = stdout) const {
    std::fprintf(out, "{\"bench\": \"%s\", \"schema_version\": %d, "
                 "\"results\": [",
                 bench_.c_str(), kJsonSchemaVersion);
    for (std::size_t i = 0; i < records.size(); ++i)
      std::fprintf(out, "\n  %s%s", records[i].c_str(),
                   i + 1 < records.size() ? "," : "");
    std::fprintf(out, "\n]}\n");
  }

 private:
  /// Print one line naming the bench and exit 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", bench_.c_str(), message.c_str());
    std::exit(2);
  }

  [[noreturn]] void reject(const char* flag, const char* expected,
                           const char* value) const {
    fail(std::string(flag) + " expects " + expected + ", got '" + value +
         "'");
  }

  int parse_int(const char* flag, const char* text, int min,
                const char* expected) const {
    int value = 0;
    if (!util::parse_whole(text, value) || value < min)
      reject(flag, expected, text);
    return value;
  }

  /// The formats this bench prints, as usage text ("text, --csv").
  std::string printed_formats() const {
    std::string out = "text";
    if (formats_.csv) out += ", --csv";
    if (formats_.json) out += ", --json";
    return out;
  }

  void print_usage(const char* argv0) const {
    std::printf(
        "usage: %s [--trials N] [--seed S] [--threads T] [--full]%s%s "
        "[--metrics-out FILE] [--trace-out FILE]\n"
        "  --trials N         Monte-Carlo trials per point (0 = bench "
        "default)\n"
        "  --seed S           base seed; results are thread-count invariant\n"
        "  --threads T        worker threads for trial fan-out; 0 or less = "
        "all\n"
        "                     hardware threads\n"
        "  --full             paper-scale trial budget\n"
        "%s%s"
        "  --metrics-out FILE write the metrics JSON document ('-' = "
        "stdout)\n"
        "  --trace-out FILE   stream the JSONL event trace ('-' = stdout)\n",
        argv0, formats_.csv ? " [--csv]" : "",
        formats_.json ? " [--json]" : "",
        formats_.csv ? "  --csv              CSV tables\n" : "",
        formats_.json ? "  --json             machine-readable envelope "
                        "output\n"
                      : "");
  }

  std::string bench_;
  Formats formats_;
  int trials_ = 0;  ///< 0 = use the bench's default
  std::uint64_t seed_ = 20240607;
  bool full_ = false;
  bool csv_ = false;
  bool json_ = false;
  int threads_ = 1;  ///< worker threads for trial fan-out (resolved)
  int threads_arg_ = 1;  ///< --threads as given
  std::unique_ptr<obs::FileSession> session_;
};

}  // namespace surfnet::bench
