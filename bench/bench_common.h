#pragma once

// Shared helpers for the reproduction benches. Every bench binary prints
// the rows/series of one paper table or figure; pass --trials N to change
// the Monte-Carlo budget and --seed S to change the base seed. Paper-scale
// budgets (e.g. the 1080 trials of Fig. 6/7) are available via --full.
//
// --threads T fans Monte-Carlo trials out over T worker threads; results
// are bitwise-identical for every T (per-trial counter-based seeding).
// --threads 0 resolves to the machine's hardware concurrency.
//
// --metrics-out FILE / --trace-out FILE attach the observability layer:
// the bench's sink() then carries a live metrics registry and/or JSONL
// trace writer (see src/obs/) that the engines under test report into.
//
// Machine-readable output (--json) uses one shared envelope across all
// benches, so saved outputs can be compared generically
// (scripts/bench_compare.py) and validated (--validate):
//   {"bench": "<name>", "schema_version": 1, "results": [<records>...]}
// where each record is a flat JSON object whose keys are stable per bench.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/session.h"
#include "obs/sink.h"

namespace surfnet::bench {

/// Version of the shared --json envelope (bumped on breaking changes).
inline constexpr int kJsonSchemaVersion = 1;

/// Command-line front end shared by every bench binary: parses the common
/// flag set, owns the observability session, and prints the shared JSON
/// envelope. Construction parses (and exits on --help or a bad flag).
class ArgParser {
 public:
  ArgParser(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    std::string metrics_out;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
        trials_ = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        seed_ = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        threads_ = std::atoi(argv[++i]);
        if (threads_ <= 0) {
          const unsigned hw = std::thread::hardware_concurrency();
          threads_ = hw > 0 ? static_cast<int>(hw) : 1;
        }
      } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
        metrics_out = argv[++i];
      } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        trace_out = argv[++i];
      } else if (std::strcmp(argv[i], "--full") == 0) {
        full_ = true;
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        csv_ = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json_ = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        print_usage(argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                     bench_.c_str(), argv[i]);
        std::exit(2);
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
  void print_usage(const char* argv0) const {
    std::printf(
        "usage: %s [--trials N] [--seed S] [--threads T] [--full] [--csv] "
        "[--json] [--metrics-out FILE] [--trace-out FILE]\n"
        "  --trials N         Monte-Carlo trials per point (0 = bench "
        "default)\n"
        "  --seed S           base seed; results are thread-count invariant\n"
        "  --threads T        worker threads for trial fan-out; 0 = all\n"
        "                     hardware threads\n"
        "  --full             paper-scale trial budget\n"
        "  --csv              CSV tables (benches that support it)\n"
        "  --json             machine-readable envelope output\n"
        "  --metrics-out FILE write the metrics JSON document ('-' = "
        "stdout)\n"
        "  --trace-out FILE   stream the JSONL event trace ('-' = stdout)\n",
        argv0);
  }

  std::string bench_;
  int trials_ = 0;  ///< 0 = use the bench's default
  std::uint64_t seed_ = 20240607;
  bool full_ = false;
  bool csv_ = false;
  bool json_ = false;
  int threads_ = 1;  ///< worker threads for trial fan-out (resolved)
  std::unique_ptr<obs::FileSession> session_;
};

}  // namespace surfnet::bench
