#include "decoder/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "util/stats.h"

namespace surfnet::decoder {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-worker accumulators of one lane, merged in worker order after the
/// join.
struct WorkerTally {
  std::int64_t failures = 0;
  std::int64_t invalid = 0;
  std::int64_t valid_but_wrong = 0;

  void add(const TrialOutcome& outcome) {
    if (outcome.failure) ++failures;
    if (outcome.invalid) ++invalid;
    if (outcome.valid_but_wrong) ++valid_but_wrong;
  }
};

/// One trial of the engine: writes one outcome per lane into `out`.
using LaneTrialFn =
    std::function<void(std::int64_t trial, util::Rng&, TrialOutcome* out)>;

/// Chunk size of the atomic work cursor: big enough to amortize contention,
/// small enough to balance load across uneven trial costs.
constexpr std::int64_t kChunk = 64;

}  // namespace

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double TrialReport::error_rate() const {
  return trials > 0 ? static_cast<double>(failures) / static_cast<double>(trials)
                    : 0.0;
}

double TrialReport::error_rate_ci95() const {
  util::Proportion proportion;
  proportion.add_many(static_cast<std::size_t>(failures),
                      static_cast<std::size_t>(trials));
  return proportion.ci95();
}

double TrialReport::trials_per_sec() const {
  return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
}

double TrialReport::ns_per_trial() const {
  return trials > 0 ? busy_seconds * 1e9 / static_cast<double>(trials) : 0.0;
}

namespace {

/// The engine behind run_trials and the paired runs: every trial reports
/// one outcome per lane, and lane i's counts become report i. Timings are
/// the run's, shared by every lane.
std::vector<TrialReport> run_lanes(
    std::int64_t trials, const TrialRunnerOptions& options, std::size_t lanes,
    const std::function<LaneTrialFn()>& make_worker) {
  if (trials < 0)
    throw std::invalid_argument("run_trials: negative trial count");

  const int workers = static_cast<int>(
      std::min<std::int64_t>(resolve_threads(options.threads),
                             std::max<std::int64_t>(trials, 1)));

  const auto wall_start = Clock::now();
  std::atomic<std::int64_t> cursor{0};

  struct Worker {
    std::vector<WorkerTally> lanes;
    double busy_seconds = 0.0;
  };
  auto run_worker = [&](Worker& worker) {
    const LaneTrialFn trial_fn = make_worker();
    std::vector<TrialOutcome> outcomes(lanes);
    const auto busy_start = Clock::now();
    while (true) {
      const std::int64_t begin =
          cursor.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= trials) break;
      const std::int64_t end = std::min(begin + kChunk, trials);
      for (std::int64_t t = begin; t < end; ++t) {
        util::Rng rng(
            trial_seed(options.seed, static_cast<std::uint64_t>(t)));
        trial_fn(t, rng, outcomes.data());
        for (std::size_t lane = 0; lane < lanes; ++lane)
          worker.lanes[lane].add(outcomes[lane]);
      }
    }
    worker.busy_seconds = seconds_since(busy_start);
  };

  std::vector<Worker> pool_state(static_cast<std::size_t>(workers),
                                 Worker{std::vector<WorkerTally>(lanes)});
  if (workers == 1) {
    run_worker(pool_state[0]);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (auto& worker : pool_state)
      pool.emplace_back([&run_worker, &worker] { run_worker(worker); });
    for (auto& thread : pool) thread.join();
  }

  // Counts are sums of integers: the merge is exact and independent of how
  // chunks were interleaved across workers.
  std::vector<TrialReport> reports(lanes);
  double busy_seconds = 0.0;
  for (const auto& worker : pool_state) busy_seconds += worker.busy_seconds;
  const double wall_seconds = seconds_since(wall_start);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    TrialReport& report = reports[lane];
    report.trials = trials;
    report.threads = workers;
    for (const auto& worker : pool_state) {
      report.failures += worker.lanes[lane].failures;
      report.invalid += worker.lanes[lane].invalid;
      report.valid_but_wrong += worker.lanes[lane].valid_but_wrong;
    }
    report.busy_seconds = busy_seconds;
    report.wall_seconds = wall_seconds;
  }
  if (options.sink.metrics) {
    obs::MetricsRegistry& m = *options.sink.metrics;
    for (const TrialReport& report : reports) {
      m.count("trials.count", report.trials);
      m.count("trials.failures", report.failures);
      m.count("trials.invalid", report.invalid);
      m.count("trials.valid_but_wrong", report.valid_but_wrong);
    }
    m.time("trials.busy_seconds", busy_seconds);
    m.time("trials.wall_seconds", wall_seconds);
  }
  return reports;
}

}  // namespace

TrialReport run_trials(std::int64_t trials,
                       const TrialRunnerOptions& options,
                       const std::function<TrialFn()>& make_worker) {
  return run_lanes(trials, options, 1, [&make_worker]() -> LaneTrialFn {
    return [trial_fn = make_worker()](std::int64_t t, util::Rng& rng,
                                      TrialOutcome* out) {
      out[0] = trial_fn(t, rng);
    };
  }).front();
}

TrialReport run_logical_error_trials(const qec::CodeLattice& lattice,
                                     const qec::NoiseProfile& profile,
                                     qec::PauliChannel channel,
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const TrialRunnerOptions& options) {
  return run_logical_error_trials(lattice, profile, channel,
                                  profile.component_error_prob(channel),
                                  decoder, trials, options);
}

namespace {

/// Code trials with one lane per decoder: each trial samples one error and
/// every decoder decodes it.
std::vector<TrialReport> run_code_trials(
    const qec::CodeLattice& lattice, const qec::NoiseProfile& profile,
    qec::PauliChannel channel, const std::vector<double>& prior,
    const std::vector<const Decoder*>& decoders, std::int64_t trials,
    const TrialRunnerOptions& options) {
  auto make_worker = [&]() -> LaneTrialFn {
    // One workspace per worker thread; shared_ptr because std::function
    // requires a copyable callable. All per-trial buffers live inside.
    auto ws = std::make_shared<CodeTrialWorkspace>();
    return [&lattice, &profile, channel, &prior, &decoders, ws](
               std::int64_t, util::Rng& rng, TrialOutcome* out) {
      qec::sample_errors(profile, channel, rng, ws->sample);
      for (std::size_t i = 0; i < decoders.size(); ++i)
        out[i] = TrialOutcome::from(
            decode_sample(lattice, ws->sample, prior, *decoders[i], *ws));
    };
  };
  return run_lanes(trials, options, decoders.size(), make_worker);
}

}  // namespace

TrialReport run_logical_error_trials(const qec::CodeLattice& lattice,
                                     const qec::NoiseProfile& profile,
                                     qec::PauliChannel channel,
                                     const std::vector<double>& prior,
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const TrialRunnerOptions& options) {
  return run_code_trials(lattice, profile, channel, prior, {&decoder}, trials,
                         options)
      .front();
}

std::vector<TrialReport> run_paired_logical_error_trials(
    const qec::CodeLattice& lattice, const qec::NoiseProfile& profile,
    qec::PauliChannel channel, const std::vector<const Decoder*>& decoders,
    std::int64_t trials, const TrialRunnerOptions& options) {
  return run_code_trials(lattice, profile, channel,
                         profile.component_error_prob(channel), decoders,
                         trials, options);
}

}  // namespace surfnet::decoder
