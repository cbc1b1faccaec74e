// Tests of the parallel trial runner: thread-count invariance of the
// counter-based trial streams, agreement with a hand-rolled serial loop,
// and bitwise equivalence of the workspace decode path against the
// allocating one under dirty, reused workspaces.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "decoder/code_trial.h"
#include "decoder/erasure_decoder.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "decoder/union_find.h"
#include "decoder/workspace.h"
#include "obs/metrics.h"
#include "qec/core_support.h"
#include "qec/lattice.h"
#include "util/stats.h"

namespace surfnet::decoder {
namespace {

TEST(TrialSeed, DependsOnBaseAndCounter) {
  EXPECT_NE(trial_seed(1, 0), trial_seed(1, 1));
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
  // Counter-based: the mapping is a pure function of (base, trial).
  EXPECT_EQ(trial_seed(99, 12345), trial_seed(99, 12345));
}

TEST(RunTrials, CountsExactlyAndInvariantToThreadCount) {
  // A synthetic trial function with a deterministic outcome per index:
  // counts must match the closed form for every thread count.
  const std::int64_t trials = 1000;
  const auto make_worker = []() -> TrialFn {
    return [](std::int64_t t, util::Rng&) {
      TrialOutcome outcome;
      outcome.failure = (t % 3 == 0);
      outcome.invalid = (t % 10 == 0);
      outcome.valid_but_wrong = outcome.failure && !outcome.invalid;
      return outcome;
    };
  };
  for (int threads : {1, 2, 3, 8}) {
    RunOptions opts;
    opts.threads = threads;
    const auto report = run_trials(trials, opts, make_worker);
    EXPECT_EQ(report.trials, trials);
    EXPECT_EQ(report.failures, 334) << "threads=" << threads;
    EXPECT_EQ(report.invalid, 100) << "threads=" << threads;
    EXPECT_EQ(report.valid_but_wrong, 300) << "threads=" << threads;
    EXPECT_EQ(report.threads, threads);
  }
}

TEST(RunTrials, PerTrialRngIsCounterSeeded) {
  // Every worker must receive an rng seeded with trial_seed(base, t),
  // regardless of which thread picks the trial up.
  const std::uint64_t base = 777;
  const std::int64_t trials = 257;  // not a multiple of the chunk size
  for (int threads : {1, 4}) {
    RunOptions opts;
    opts.threads = threads;
    opts.seed = base;
    const auto report = run_trials(trials, opts, [&]() -> TrialFn {
      return [&](std::int64_t t, util::Rng& rng) {
        util::Rng expect(trial_seed(base, static_cast<std::uint64_t>(t)));
        TrialOutcome outcome;
        outcome.failure = (rng() != expect());
        return outcome;
      };
    });
    EXPECT_EQ(report.failures, 0) << "threads=" << threads;
  }
}

TEST(LogicalErrorTrials, ThreadCountInvariant) {
  // The acceptance property: identical failure counts for 1, 2, and 8
  // threads on a real Fig. 8 style workload.
  const qec::SurfaceCodeLattice lattice(7);
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.07, 0.15);
  const SurfNetDecoder decoder;

  RunOptions opts;
  opts.seed = 2024;
  opts.threads = 1;
  const auto ref = run_logical_error_trials(
      lattice, profile, decoder, 600, opts);
  EXPECT_EQ(ref.trials, 600);
  for (int threads : {2, 8}) {
    opts.threads = threads;
    const auto report = run_logical_error_trials(
        lattice, profile, decoder, 600, opts);
    EXPECT_EQ(report.failures, ref.failures) << "threads=" << threads;
    EXPECT_EQ(report.invalid, ref.invalid) << "threads=" << threads;
    EXPECT_EQ(report.valid_but_wrong, ref.valid_but_wrong)
        << "threads=" << threads;
  }
}

TEST(LogicalErrorTrials, MatchesHandRolledSerialLoop) {
  // The runner is sugar over: for each trial, seed an rng from the counter
  // stream and run one code trial. A hand-rolled loop must reproduce the
  // failure count exactly.
  const qec::SurfaceCodeLattice lattice(5);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.06, 0.15);
  const UnionFindDecoder decoder;
  const std::int64_t trials = 400;

  RunOptions opts;
  opts.seed = 4242;
  opts.threads = 2;
  const auto report =
      run_logical_error_trials(lattice, profile, decoder, trials, opts);

  const auto prior = profile.component_error_prob();
  std::int64_t failures = 0;
  for (std::int64_t t = 0; t < trials; ++t) {
    util::Rng rng(trial_seed(opts.seed, static_cast<std::uint64_t>(t)));
    const auto result = decode_sample(
        lattice, qec::sample_errors(profile, rng), prior, decoder);
    if (!result.success()) ++failures;
  }
  EXPECT_EQ(report.failures, failures);
}

TEST(LogicalErrorTrials, PairedRunMatchesOneRunPerDecoder) {
  // One sample per trial decoded by both decoders must count exactly what
  // two separate runs under the same seed count, at any thread count, and
  // report the same counters into the sink.
  const qec::SurfaceCodeLattice lattice(9);
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.07, 0.15);
  const UnionFindDecoder union_find;
  const SurfNetDecoder surfnet;
  const std::vector<const Decoder*> decoders{&union_find, &surfnet};

  RunOptions opts;
  opts.seed = 77;
  obs::MetricsRegistry separate_metrics;
  opts.sink.metrics = &separate_metrics;
  std::vector<TrialReport> separate;
  for (const Decoder* decoder : decoders)
    separate.push_back(
        run_logical_error_trials(lattice, profile, *decoder, 500, opts));
  for (int threads : {1, 4}) {
    opts.threads = threads;
    obs::MetricsRegistry paired_metrics;
    opts.sink.metrics = &paired_metrics;
    const auto paired = run_paired_logical_error_trials(
        lattice, profile, decoders, 500, opts);
    ASSERT_EQ(paired.size(), decoders.size());
    for (std::size_t i = 0; i < decoders.size(); ++i) {
      SCOPED_TRACE(testing::Message() << decoders[i]->name() << " threads="
                                      << threads);
      EXPECT_EQ(paired[i].trials, separate[i].trials);
      EXPECT_EQ(paired[i].failures, separate[i].failures);
      EXPECT_EQ(paired[i].invalid, separate[i].invalid);
      EXPECT_EQ(paired[i].valid_but_wrong, separate[i].valid_but_wrong);
    }
    for (const char* name : {"trials.count", "trials.failures",
                             "trials.invalid", "trials.valid_but_wrong"})
      EXPECT_EQ(paired_metrics.counter(name), separate_metrics.counter(name))
          << name;
  }
  EXPECT_GT(separate[0].failures, 0);
}

TEST(TrialReport, WilsonIntervalMatchesStatsHelper) {
  TrialReport report;
  report.trials = 1000;
  report.failures = 87;
  EXPECT_DOUBLE_EQ(report.error_rate(), 0.087);
  util::Proportion p;
  p.add_many(87, 1000);
  EXPECT_DOUBLE_EQ(report.error_rate_ci95(), p.ci95());
  EXPECT_GT(report.error_rate_ci95(), 0.0);
}

// ---------------------------------------------------------------------------
// Workspace equivalence: decode(input) vs decode(input, ws) with a dirty,
// reused workspace must agree bitwise on every decoder and both graphs.

void expect_workspace_equivalence(const qec::CodeLattice& lattice,
                                  const Decoder& decoder,
                                  const qec::NoiseProfile& profile,
                                  std::uint64_t seed) {
  const auto prior = profile.component_error_prob();
  util::Rng rng(seed);
  DecodeWorkspace ws;  // deliberately reused (dirty) across all iterations
  for (int t = 0; t < 100; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    for (const auto kind : {qec::GraphKind::Z, qec::GraphKind::X}) {
      const auto input = make_decode_input(lattice, kind, sample, prior);
      const auto fresh = decoder.decode(input);
      const auto& reused = decoder.decode(input, ws);
      ASSERT_EQ(fresh, reused)
          << decoder.name() << " trial " << t << " kind "
          << (kind == qec::GraphKind::Z ? "Z" : "X");
    }
  }
}

TEST(WorkspaceEquivalence, UnionFindPlanar) {
  const UnionFindDecoder decoder;
  const qec::SurfaceCodeLattice planar(7);
  expect_workspace_equivalence(
      planar, decoder,
      qec::NoiseProfile::uniform(planar.num_data_qubits(), 0.08, 0.15), 11);
}

TEST(WorkspaceEquivalence, SurfNetDecoderPlanar) {
  const SurfNetDecoder decoder;
  const qec::SurfaceCodeLattice planar(7);
  const auto split = qec::make_core_support(planar);
  expect_workspace_equivalence(
      planar, decoder, qec::NoiseProfile::core_support(split, 0.08, 0.15),
      21);
}

TEST(WorkspaceEquivalence, ErasureDecoderOnErasureOnlyNoise) {
  const ErasureDecoder decoder;
  const qec::SurfaceCodeLattice lattice(7);
  expect_workspace_equivalence(
      lattice, decoder,
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.3), 31);
}

TEST(WorkspaceEquivalence, DirtyWorkspaceSharedAcrossDecoders) {
  // One workspace alternating between decoders and graph sizes: leftover
  // state from a previous decode must never leak into the next.
  const qec::SurfaceCodeLattice small(5);
  const qec::SurfaceCodeLattice large(9);
  const UnionFindDecoder union_find;
  const SurfNetDecoder surfnet;
  util::Rng rng(41);
  DecodeWorkspace ws;
  for (int t = 0; t < 50; ++t) {
    const auto& lattice = (t % 2 == 0) ? large : small;
    const Decoder& decoder =
        (t % 3 == 0) ? static_cast<const Decoder&>(union_find)
                     : static_cast<const Decoder&>(surfnet);
    const auto profile =
        qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.08, 0.15);
    const auto prior = profile.component_error_prob();
    const auto sample = qec::sample_errors(profile, rng);
    const auto input =
        make_decode_input(lattice, qec::GraphKind::Z, sample, prior);
    ASSERT_EQ(decoder.decode(input), decoder.decode(input, ws))
        << decoder.name() << " trial " << t;
  }
}

TEST(WorkspaceEquivalence, MwpmDefaultOverloadForwards) {
  // MwpmDecoder does not override the workspace overload; the base-class
  // default must still produce the allocating result.
  const MwpmDecoder decoder;
  const qec::SurfaceCodeLattice lattice(5);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.06, 0.1);
  expect_workspace_equivalence(lattice, decoder, profile, 51);
}

TEST(DecodeSampleWorkspace, MatchesAllocatingDecodeSample) {
  // The full per-trial pipeline (edge flips, syndromes, decode, evaluate)
  // through a dirty CodeTrialWorkspace must reproduce the allocating path.
  const qec::SurfaceCodeLattice lattice(7);
  const auto partition = qec::make_core_support(lattice);
  const auto profile = qec::NoiseProfile::core_support(partition, 0.07, 0.15);
  const auto prior = profile.component_error_prob();
  const SurfNetDecoder decoder;
  util::Rng rng(61);
  CodeTrialWorkspace ws;
  for (int t = 0; t < 100; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    const auto fresh = decode_sample(lattice, sample, prior, decoder);
    const auto reused = decode_sample(lattice, sample, prior, decoder, ws);
    ASSERT_EQ(fresh.z_graph.valid, reused.z_graph.valid) << t;
    ASSERT_EQ(fresh.z_graph.logical, reused.z_graph.logical) << t;
    ASSERT_EQ(fresh.x_graph.valid, reused.x_graph.valid) << t;
    ASSERT_EQ(fresh.x_graph.logical, reused.x_graph.logical) << t;
  }
}

}  // namespace
}  // namespace surfnet::decoder
