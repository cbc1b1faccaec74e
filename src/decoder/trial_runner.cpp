#include "decoder/trial_runner.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace surfnet::decoder {

namespace {

/// One trial of the engine: writes one outcome per lane into `out`.
using LaneTrialFn =
    std::function<void(std::int64_t trial, util::Rng&, TrialOutcome* out)>;

/// Trials per chunk of the pool's cursor: big enough to amortize
/// contention, small enough to balance load across uneven trial costs.
constexpr std::int64_t kChunk = 64;

}  // namespace

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
    std::int64_t trials, const RunOptions& options, std::size_t lanes,
    const std::function<LaneTrialFn()>& make_worker) {
  if (trials < 0)
    throw std::invalid_argument("run_trials: negative trial count");

  const auto wall_start = std::chrono::steady_clock::now();
  const int workers = util::pool_workers(trials, options.threads);
  // Per worker: its callable, outcome buffer and per-lane counts, made on
  // the worker's own thread at its first chunk, so each worker writes only
  // memory it allocated; summed after the join. A worker that never got a
  // chunk has none.
  struct Worker {
    LaneTrialFn trial_fn;
    std::vector<TrialOutcome> outcomes;
    std::vector<TrialReport> lanes;
  };
  std::vector<Worker> pool_state(static_cast<std::size_t>(workers));
  const double busy_seconds = util::parallel_for(
      trials, workers, kChunk,
      [&](int w, std::int64_t begin, std::int64_t end) {
        Worker& worker = pool_state[static_cast<std::size_t>(w)];
        if (!worker.trial_fn)
          worker = {make_worker(), std::vector<TrialOutcome>(lanes),
                    std::vector<TrialReport>(lanes)};
        for (std::int64_t t = begin; t < end; ++t) {
          util::Rng rng(
              trial_seed(options.seed, static_cast<std::uint64_t>(t)));
          worker.trial_fn(t, rng, worker.outcomes.data());
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            const TrialOutcome& outcome = worker.outcomes[lane];
            if (outcome.failure) ++worker.lanes[lane].failures;
            if (outcome.invalid) ++worker.lanes[lane].invalid;
            if (outcome.valid_but_wrong) ++worker.lanes[lane].valid_but_wrong;
          }
        }
      });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  const double wall_seconds = wall.count();

  // Counts are sums of integers: the merge is exact and independent of how
  // chunks were interleaved across workers.
  std::vector<TrialReport> reports(lanes);
  for (const auto& worker : pool_state)
    for (std::size_t lane = 0; lane < worker.lanes.size(); ++lane) {
      reports[lane].failures += worker.lanes[lane].failures;
      reports[lane].invalid += worker.lanes[lane].invalid;
      reports[lane].valid_but_wrong += worker.lanes[lane].valid_but_wrong;
    }
  for (TrialReport& report : reports) {
    report.trials = trials;
    report.threads = workers;
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
                       const RunOptions& options,
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
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const RunOptions& options) {
  return run_logical_error_trials(lattice, profile,
                                  profile.component_error_prob(), decoder,
                                  trials, options);
}

namespace {

/// Code trials with one lane per decoder: each trial samples one error and
/// every decoder decodes it.
std::vector<TrialReport> run_code_trials(
    const qec::CodeLattice& lattice, const qec::NoiseProfile& profile,
    const std::vector<double>& prior,
    const std::vector<const Decoder*>& decoders, std::int64_t trials,
    const RunOptions& options) {
  auto make_worker = [&]() -> LaneTrialFn {
    // One workspace per worker thread; shared_ptr because std::function
    // requires a copyable callable. All per-trial buffers live inside.
    auto ws = std::make_shared<CodeTrialWorkspace>();
    return [&lattice, &profile, &prior, &decoders, ws](
               std::int64_t, util::Rng& rng, TrialOutcome* out) {
      qec::sample_errors(profile, rng, ws->sample);
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
                                     const std::vector<double>& prior,
                                     const Decoder& decoder,
                                     std::int64_t trials,
                                     const RunOptions& options) {
  return run_code_trials(lattice, profile, prior, {&decoder}, trials, options)
      .front();
}

std::vector<TrialReport> run_paired_logical_error_trials(
    const qec::CodeLattice& lattice, const qec::NoiseProfile& profile,
    const std::vector<const Decoder*>& decoders, std::int64_t trials,
    const RunOptions& options) {
  return run_code_trials(lattice, profile, profile.component_error_prob(),
                         decoders, trials, options);
}

}  // namespace surfnet::decoder
