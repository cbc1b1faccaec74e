#pragma once

// Deterministic parallel Monte-Carlo trial engine. Every trial t derives
// its RNG from trial_seed(base_seed, t) — a counter-based stream, fixed
// before any work is fanned out — so aggregate counts are bitwise-identical
// for ANY thread count and any scheduling order. Trials run on the
// library's worker pool (util/parallel.h); each worker keeps private
// accumulators (and its own decode workspace, so the steady-state decode
// path allocates nothing) that are merged at the end.

#include <cstdint>
#include <functional>
#include <vector>

#include "decoder/code_trial.h"
#include "obs/sink.h"
#include "util/rng.h"

namespace surfnet::decoder {

/// How a batch of trials runs, for this engine and for core's trial-order
/// runner (core::RunOptions re-exports it).
struct RunOptions {
  /// Base seed. Each runner derives its per-trial seeds from it alone.
  std::uint64_t seed = 20240607;
  /// Worker threads; <= 0 means all hardware threads (util::resolve_threads).
  int threads = 1;
  /// Observability handle. After the workers join, this engine reports
  /// counters "trials.count" / "trials.failures" / "trials.invalid" /
  /// "trials.valid_but_wrong" (exact, thread-count invariant) and timers
  /// "trials.busy_seconds" / "trials.wall_seconds" (measured) into it.
  /// Null (the default) disables reporting.
  obs::Sink sink{};
};

/// The seed of trial t under base seed `base`. One SplitMix64 mix of a
/// golden-ratio counter stride: distinct trials get decorrelated streams
/// and the mapping is independent of thread count.
inline std::uint64_t trial_seed(std::uint64_t base, std::uint64_t trial) {
  std::uint64_t s = base + 0x9E3779B97F4A7C15ULL * trial;
  return util::splitmix64(s);
}

/// What one trial reports back to the engine.
struct TrialOutcome {
  bool failure = false;          ///< trial counts as a logical failure
  bool invalid = false;          ///< a correction failed to match its syndrome
  bool valid_but_wrong = false;  ///< valid correction, logical operator flipped

  static TrialOutcome from(const CodeTrialResult& result) {
    TrialOutcome outcome;
    outcome.failure = !result.success();
    outcome.invalid = !result.z_graph.valid || !result.x_graph.valid;
    outcome.valid_but_wrong = !outcome.invalid && outcome.failure;
    return outcome;
  }
};

/// Merged accumulators of one run. Counts are exact and thread-count
/// invariant; timings are measured, not derived.
struct TrialReport {
  std::int64_t trials = 0;
  std::int64_t failures = 0;
  std::int64_t invalid = 0;
  std::int64_t valid_but_wrong = 0;
  int threads = 1;            ///< workers actually used
  double wall_seconds = 0.0;  ///< end-to-end elapsed time
  double busy_seconds = 0.0;  ///< trial-loop time summed over workers

  /// Mean logical error rate (failures / trials).
  double error_rate() const;
  /// Wilson 95% half-width of the error rate (util::Proportion).
  double error_rate_ci95() const;
  /// Aggregate throughput over wall-clock time.
  double trials_per_sec() const;
  /// Mean per-trial latency on one worker (busy time / trials).
  double ns_per_trial() const;
};

/// One trial: receives the trial index and a trial-private RNG already
/// seeded with trial_seed(base, index).
using TrialFn = std::function<TrialOutcome(std::int64_t trial, util::Rng&)>;

/// Generic engine. `make_worker` runs at most once per worker, on that
/// worker's thread at its first chunk (build per-worker workspaces there),
/// and returns the per-trial callable.
TrialReport run_trials(std::int64_t trials, const RunOptions& options,
                       const std::function<TrialFn()>& make_worker);

/// Code-trial engine behind the Fig. 8 style studies: per trial, sample an
/// error configuration and decode both graphs, allocation-free at steady
/// state. The per-qubit prior is computed once up front.
TrialReport run_logical_error_trials(const qec::CodeLattice& lattice,
                                     const qec::NoiseProfile& profile,
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const RunOptions& options);

/// Same, but with an explicit per-qubit component prior handed to the
/// decoder instead of the profile's own (e.g. the split-blind ablation).
TrialReport run_logical_error_trials(const qec::CodeLattice& lattice,
                                     const qec::NoiseProfile& profile,
                                     const std::vector<double>& prior,
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const RunOptions& options);

/// Paired code trials: every trial samples one error and decodes it with
/// each decoder. Report i, for decoders[i], has the counts that
/// run_logical_error_trials gives for that decoder under the same options
/// (same seeds, so the same samples), at one sampling cost for all of them;
/// the timings are the paired run's.
std::vector<TrialReport> run_paired_logical_error_trials(
    const qec::CodeLattice& lattice, const qec::NoiseProfile& profile,
    const std::vector<const Decoder*>& decoders, std::int64_t trials,
    const RunOptions& options);

}  // namespace surfnet::decoder
