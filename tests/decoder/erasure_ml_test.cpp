// Differential and property campaigns for the linear-time exact-ML
// erasure decoder (tests/decoder/erasure_ml.h), the oracle the peeling
// decoder is held against. Three named invariants anchor the suite:
//
//   * equivalence  — erasure_ml == exhaustive ML wherever both run
//     (d <= 3), exactly, including the pinned class-0 tie-break;
//   * dominance    — no approximate decoder ever beats erasure_ml on the
//     pure erasure channel at d up to 15: erasure_ml succeeds on every
//     non-degenerate trial, so a rival win over it can only happen on a
//     degenerate erasure where both classes are equiprobable;
//   * peeling      — on its known-optimal regime (non-degenerate pure
//     erasure) peeling is bitwise identical to erasure_ml; on degenerate
//     erasures erasure_ml additionally normalizes the class to 0.
//
// Every corpus is a pure function of (seed, distance, rate schedule):
// rerunning any sweep reproduces the same samples and the same
// corrections bit for bit. The property campaigns (proptest.h style)
// cover degeneracy monotonicity under nested erasures, failure-rate
// monotonicity in the erasure rate, workspace-reuse bitwise invariance,
// and thread-count invariance through the trial runner. All tests here
// carry the `extended` CTest label.

#include "erasure_ml.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decoder/code_trial.h"
#include "decoder/erasure_decoder.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/trial_runner.h"
#include "decoder/union_find.h"
#include "decoder/workspace.h"
#include "exhaustive.h"
#include "qec/code_lattice.h"
#include "qec/error_model.h"
#include "qec/logical.h"
#include "qec/syndrome.h"
#include "../proptest.h"
#include "util/rng.h"

namespace surfnet::decoder {
namespace {

using qec::GraphKind;
using qec::SurfaceCodeLattice;

constexpr GraphKind kKinds[] = {GraphKind::Z, GraphKind::X};

/// Seeded pure-erasure corpus: trial t of a sweep erases qubits at a rate
/// cycling through a fixed schedule, with the RNG stream derived from
/// (base seed, t) exactly like the trial runner derives its streams. The
/// corpus is therefore bitwise reproducible from the base seed alone.
class ErasureCorpus {
 public:
  ErasureCorpus(const qec::CodeLattice& lattice, std::uint64_t seed)
      : lattice_(&lattice), seed_(seed) {}

  qec::ErrorSample sample(int trial) const {
    static constexpr double kRates[] = {0.05, 0.10, 0.15, 0.20,
                                        0.25, 0.30, 0.35, 0.40};
    const double rate = kRates[static_cast<std::size_t>(trial) % 8];
    const auto profile = qec::NoiseProfile::uniform(
        lattice_->num_data_qubits(), /*pauli=*/0.0, rate);
    util::Rng rng(trial_seed(seed_, static_cast<std::uint64_t>(trial)));
    return qec::sample_errors(profile, rng);
  }

 private:
  const qec::CodeLattice* lattice_;
  std::uint64_t seed_;
};

std::vector<double> zero_prior(const qec::CodeLattice& lattice) {
  return std::vector<double>(
      static_cast<std::size_t>(lattice.num_data_qubits()), 0.0);
}

// ---------------------------------------------------------------------------
// Invariant 1: equivalence with the exhaustive enumerator where both run.

TEST(ErasureMl, MatchesExhaustiveMlAtEnumerableDistances) {
  // On pure erasure the priors are exactly zero, so every configuration
  // supported on the erased region carries exactly 2^-|R| mass: class
  // probabilities tie exactly in floating point whenever the erasure is
  // degenerate, and both decoders pin ties to class 0. The comparison is
  // therefore exact — same chosen class on every trial, and degeneracy
  // reported by erasure_ml iff the enumerator sees equal class masses.
  for (const int d : {2, 3}) {
    const SurfaceCodeLattice lattice(d);
    const ErasureMlDecoder ml(lattice);
    const ErasureCorpus corpus(lattice, 0xE5A5'0000ULL + d);
    const auto prior = zero_prior(lattice);
    int degenerate_trials = 0;
    for (int t = 0; t < 1000; ++t) {
      const auto sample = corpus.sample(t);
      for (const auto kind : kKinds) {
        const auto input = make_decode_input(lattice, kind, sample, prior);
        const auto fast = ml.decode_with_info(input);
        const auto exact = decode_ml(lattice, kind, input);

        const auto flips = qec::edge_flips(lattice, kind, sample.error);
        ASSERT_TRUE(qec::evaluate_correction(lattice, kind, flips,
                                             fast.correction).valid)
            << "d=" << d << " trial " << t;
        EXPECT_EQ(qec::logical_flip(lattice, kind, fast.correction),
                  fast.info.chosen_class == 1)
            << "d=" << d << " trial " << t;

        EXPECT_EQ(fast.info.chosen_class, exact.chosen_class)
            << "d=" << d << " trial " << t
            << ": erasure_ml disagrees with exhaustive ML";
        const bool exact_tie =
            exact.class_prob[0] == exact.class_prob[1] &&
            exact.class_prob[0] > 0.0;
        EXPECT_EQ(fast.info.degenerate, exact_tie)
            << "d=" << d << " trial " << t
            << ": degeneracy flag disagrees with the enumerated masses";
        if (fast.info.degenerate) {
          ++degenerate_trials;
          EXPECT_EQ(fast.info.chosen_class, 0)
              << "d=" << d << " trial " << t;
        }
      }
    }
    // The sweep must actually exercise the tie-break for the pinned
    // class-0 comparison above to test anything.
    EXPECT_GT(degenerate_trials, 0) << "d=" << d;
  }
}

// ---------------------------------------------------------------------------
// Invariant 2: dominance over every approximate decoder on pure erasure.

TEST(ErasureMl, NeverBeatenByApproximateDecodersOnPureErasure) {
  // Exact-ML dominance, stated per trial rather than as an aggregate
  // count: on a non-degenerate erasure every syndrome-consistent solution
  // lies in one class, so erasure_ml *must* succeed; on a degenerate one
  // both classes are equiprobable and no decoder can beat a coin toss. A
  // rival success paired with an erasure_ml failure is therefore only
  // legal on a degenerate trial — which is exactly what "never beaten on
  // pure erasure" means once ties are accounted for.
  const ErasureDecoder peeling;
  const UnionFindDecoder union_find;
  const SurfNetDecoder surfnet;
  const MwpmDecoder mwpm;

  long long degenerate_trials = 0;
  for (const int d : {5, 7, 9, 11, 13, 15}) {
    const SurfaceCodeLattice lattice(d);
    const ErasureMlDecoder ml(lattice);
    std::vector<std::pair<std::string, const Decoder*>> rivals{
        {"Erasure", &peeling},
        {"UnionFind", &union_find},
        {"SurfNetDecoder", &surfnet}};
    // Blossom matching is super-linear: keep the exact-cover claim but
    // cap its share of the sweep at the small distances.
    if (d <= 7) rivals.emplace_back("MWPM", &mwpm);

    const ErasureCorpus corpus(lattice, 0xD0A1'0000ULL + d);
    const auto prior = zero_prior(lattice);
    for (int t = 0; t < 1000; ++t) {
      const auto sample = corpus.sample(t);
      for (const auto kind : kKinds) {
        const auto input = make_decode_input(lattice, kind, sample, prior);
        const auto flips = qec::edge_flips(lattice, kind, sample.error);
        const bool truth = qec::logical_flip(lattice, kind, flips);

        const auto decision = ml.decode_with_info(input);
        ASSERT_TRUE(qec::evaluate_correction(lattice, kind, flips,
                                             decision.correction).valid)
            << "d=" << d << " trial " << t;
        const bool ml_success = (decision.info.chosen_class == 1) == truth;
        if (!decision.info.degenerate) {
          ASSERT_TRUE(ml_success)
              << "d=" << d << " trial " << t
              << ": erasure_ml failed a non-degenerate erasure";
        } else {
          ++degenerate_trials;
        }

        for (const auto& [rival_name, rival] : rivals) {
          const auto correction = rival->decode(input);
          ASSERT_TRUE(qec::evaluate_correction(lattice, kind, flips,
                                               correction).valid)
              << rival_name << " d=" << d << " trial " << t;
          const bool rival_success =
              qec::logical_flip(lattice, kind, correction) == truth;
          if (rival_success && !ml_success) {
            ASSERT_TRUE(decision.info.degenerate)
                << rival_name << " beat erasure_ml on a non-degenerate "
                << "erasure: d=" << d << " trial " << t;
          }
        }
      }
    }
  }
  EXPECT_GT(degenerate_trials, 0)
      << "the sweep never hit a degenerate erasure; the dominance "
      << "statement was only tested on its trivial half";
}

// ---------------------------------------------------------------------------
// Invariant 3: peeling == erasure_ml on its known-optimal regime.

TEST(ErasureMl, MatchesPeelingExactlyOnNonDegenerateErasures) {
  // Delfosse-Zemor peeling is exact ML precisely when the erasure is
  // non-degenerate. erasure_ml builds the same forest in the same
  // discovery order, so there the two corrections are bitwise identical;
  // on degenerate erasures erasure_ml may additionally XOR the witness
  // cycle, and the only allowed divergence is a class normalization:
  // same syndrome, chosen class pinned to 0.
  const ErasureDecoder peeling;
  long long ties = 0;
  for (const int d : {5, 9, 13, 15}) {
    const SurfaceCodeLattice lattice(d);
    const ErasureMlDecoder ml(lattice);
    const ErasureCorpus corpus(lattice, 0x9EE1'0000ULL + d);
    const auto prior = zero_prior(lattice);
    for (int t = 0; t < 1000; ++t) {
      const auto sample = corpus.sample(t);
      for (const auto kind : kKinds) {
        const auto input = make_decode_input(lattice, kind, sample, prior);
        const auto peel = peeling.decode(input);
        const auto decision = ml.decode_with_info(input);
        if (!decision.info.degenerate) {
          ASSERT_EQ(decision.correction, peel)
              << "d=" << d << " trial " << t
              << ": non-degenerate corrections must be bitwise equal";
        } else {
          ++ties;
          EXPECT_EQ(decision.info.chosen_class, 0)
              << "d=" << d << " trial " << t;
          // The two corrections still explain the same syndrome: their
          // difference is a closed chain.
          EXPECT_TRUE(qec::evaluate_correction(lattice, kind, peel,
                                               decision.correction).valid)
              << "d=" << d << " trial " << t;
        }
      }
    }
  }
  EXPECT_GT(ties, 0);
}

// ---------------------------------------------------------------------------
// Corpus determinism: the acceptance bar is bitwise reproducibility from
// (seed, params), so prove it for the generator and the decoder together.

TEST(ErasureMl, CorpusAndDecodesAreBitwiseReproducible) {
  const SurfaceCodeLattice lattice(7);
  const ErasureMlDecoder ml(lattice);
  const auto prior = zero_prior(lattice);
  const ErasureCorpus first(lattice, 0xC0FFEEULL);
  const ErasureCorpus second(lattice, 0xC0FFEEULL);
  for (int t = 0; t < 200; ++t) {
    const auto a = first.sample(t);
    const auto b = second.sample(t);
    ASSERT_EQ(a.error, b.error) << "trial " << t;
    ASSERT_EQ(a.erased, b.erased) << "trial " << t;
    for (const auto kind : kKinds) {
      const auto input = make_decode_input(lattice, kind, a, prior);
      const auto da = ml.decode_with_info(input);
      const auto db = ml.decode_with_info(input);
      ASSERT_EQ(da.correction, db.correction) << "trial " << t;
      ASSERT_EQ(da.info.degenerate, db.info.degenerate) << "trial " << t;
      ASSERT_EQ(da.info.chosen_class, db.info.chosen_class) << "trial " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Property campaign: degeneracy is monotone under nested erasures.

TEST(ErasureMlProperty, DegeneracyMonotoneUnderNestedErasures) {
  // Degeneracy is a structural property of the erased subgraph alone (it
  // supports a logical operator), so enlarging the erasure can never
  // clear it. Couple two rates through shared per-edge uniforms: erased
  // iff u < p, which makes the smaller erasure a pointwise subset of the
  // larger one — the monotonicity check is then deterministic, not
  // statistical.
  std::vector<std::unique_ptr<SurfaceCodeLattice>> lattices;
  for (const int d : {3, 5, 7})
    lattices.push_back(std::make_unique<SurfaceCodeLattice>(d));
  std::vector<std::unique_ptr<ErasureMlDecoder>> decoders;
  for (const auto& lattice : lattices)
    decoders.push_back(std::make_unique<ErasureMlDecoder>(*lattice));

  proptest::check(
      "degeneracy_monotone", {}, [&](util::Rng& rng) {
        const int which = proptest::int_in(rng, 0, 2);
        const auto& lattice = *lattices[static_cast<std::size_t>(which)];
        const auto& ml = *decoders[static_cast<std::size_t>(which)];
        const double lo = proptest::real_in(rng, 0.0, 0.5);
        const double hi = proptest::real_in(rng, lo, 0.6);
        for (const auto kind : kKinds) {
          const auto& graph = lattice.graph(kind);
          DecodeInput input;
          input.graph = &graph;
          input.syndrome.assign(
              static_cast<std::size_t>(graph.num_real_vertices()), 0);
          input.error_prob.assign(graph.num_edges(), 0.0);
          std::vector<char> small(graph.num_edges(), 0);
          std::vector<char> large(graph.num_edges(), 0);
          for (std::size_t e = 0; e < graph.num_edges(); ++e) {
            const double u = rng.uniform(0.0, 1.0);
            small[e] = u < lo ? 1 : 0;
            large[e] = u < hi ? 1 : 0;
          }

          input.erased = small;
          const auto before = ml.decode_with_info(input);
          input.erased = large;
          const auto after = ml.decode_with_info(input);
          if (before.info.degenerate) {
            EXPECT_TRUE(after.info.degenerate)
                << "enlarging an erasure cleared its degeneracy";
          }
          // A zero syndrome decodes to the identity in class 0.
          for (const char c : after.correction) {
            ASSERT_EQ(c, 0);
          }
          EXPECT_EQ(after.info.chosen_class, 0);
        }
      });
}

// ---------------------------------------------------------------------------
// Property campaign: failure rate is monotone in the erasure rate.

TEST(ErasureMlProperty, FailureRateMonotoneInErasureRate) {
  // Statistical monotonicity at fixed d: more erasure means more
  // degenerate configurations, hence a higher coin-toss share. Adjacent
  // rates are compared with their combined Wilson half-widths as slack,
  // so the check is robust at 4000 trials per point while still refusing
  // a genuinely non-monotone decoder.
  const SurfaceCodeLattice lattice(5);
  const ErasureMlDecoder ml(lattice);
  RunOptions options;
  options.threads = 2;
  options.seed = 0xF00D5EEDULL;

  double previous_rate = -1.0;
  double previous_slack = 0.0;
  for (const double erasure : {0.10, 0.20, 0.30, 0.40}) {
    const auto profile = qec::NoiseProfile::uniform(
        lattice.num_data_qubits(), /*pauli=*/0.0, erasure);
    const auto report = run_logical_error_trials(
        lattice, profile, ml, 4000, options);
    EXPECT_EQ(report.invalid, 0) << "erasure rate " << erasure;
    const double rate = report.error_rate();
    const double slack = report.error_rate_ci95();
    if (previous_rate >= 0.0) {
      EXPECT_GE(rate + slack + previous_slack, previous_rate)
          << "failure rate dropped when the erasure rate rose to "
          << erasure;
    }
    previous_rate = rate;
    previous_slack = slack;
  }
  // The top of the sweep must see real failures, or the monotone chain
  // compared a string of zeros.
  EXPECT_GT(previous_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Property campaign: decode results are bitwise invariant under workspace
// reuse (the DecodeWorkspace contract, through Decoder's default overload).

TEST(ErasureMlProperty, BitwiseInvariantUnderWorkspaceReuse) {
  std::vector<std::unique_ptr<SurfaceCodeLattice>> lattices;
  for (const int d : {3, 5, 7})
    lattices.push_back(std::make_unique<SurfaceCodeLattice>(d));
  std::vector<std::unique_ptr<ErasureMlDecoder>> decoders;
  for (const auto& lattice : lattices)
    decoders.push_back(std::make_unique<ErasureMlDecoder>(*lattice));
  // One workspace deliberately shared across every case and distance: a
  // decode must not depend on what the buffers held before.
  DecodeWorkspace ws;

  proptest::check(
      "workspace_reuse_bitwise", {}, [&](util::Rng& rng) {
        const int which = proptest::int_in(rng, 0, 2);
        const auto& lattice = *lattices[static_cast<std::size_t>(which)];
        const auto& ml = *decoders[static_cast<std::size_t>(which)];
        const double erasure = proptest::real_in(rng, 0.05, 0.45);
        const auto profile = qec::NoiseProfile::uniform(
            lattice.num_data_qubits(), /*pauli=*/0.0, erasure);
        const auto sample = qec::sample_errors(profile, rng);
        const auto prior = zero_prior(lattice);
        for (const auto kind : kKinds) {
          const auto input = make_decode_input(lattice, kind, sample, prior);
          const auto fresh = ml.decode(input);
          const auto reused = ml.decode(input, ws);
          ASSERT_EQ(fresh, reused)
              << "workspace decode diverged from the allocating decode";
          const auto again = ml.decode(input, ws);
          ASSERT_EQ(fresh, again)
              << "second decode into the same workspace diverged";
        }
      });
}

// ---------------------------------------------------------------------------
// Property campaign: thread-count invariance through the trial runner.

TEST(ErasureMlProperty, TrialRunnerIsThreadCountInvariant) {
  const SurfaceCodeLattice lattice(7);
  const ErasureMlDecoder ml(lattice);
  const auto profile = qec::NoiseProfile::uniform(
      lattice.num_data_qubits(), /*pauli=*/0.0, 0.30);

  TrialReport reports[2];
  const int thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    RunOptions options;
    options.threads = thread_counts[i];
    options.seed = 20240607;
    reports[i] = run_logical_error_trials(lattice, profile, ml, 4000, options);
  }
  EXPECT_EQ(reports[0].trials, reports[1].trials);
  EXPECT_EQ(reports[0].failures, reports[1].failures);
  EXPECT_EQ(reports[0].invalid, reports[1].invalid);
  EXPECT_EQ(reports[0].valid_but_wrong, reports[1].valid_but_wrong);
  EXPECT_EQ(reports[0].invalid, 0);
}

}  // namespace
}  // namespace surfnet::decoder
