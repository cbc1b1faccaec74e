// Differential tests against the exact maximum-likelihood decoder
// (tests/decoder/exhaustive.h). On codes small enough to enumerate
// (d <= 3) the ML decoder is the accuracy ceiling: no approximate decoder
// may beat it on matched error streams, and on pure erasure noise the
// peeling decoder must match it exactly (Delfosse-Zemor). These sweeps run
// 1000 seeded trials each and are labeled `extended` in CTest.

#include "exhaustive.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decoder/code_trial.h"
#include "decoder/erasure_decoder.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "qec/code_lattice.h"
#include "qec/error_model.h"
#include "qec/logical.h"
#include "qec/syndrome.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::decoder {
namespace {

using qec::GraphKind;
using qec::SurfaceCodeLattice;

TEST(ExhaustiveMl, ConstructionRejectsUnenumerableCodes) {
  // Oversized codes are a contract FATAL, not a catchable domain error:
  // silently mis-decoding (or quietly truncating the enumeration) would
  // corrupt every study built on top. The test handler turns the
  // violation into an exception carrying the diagnostic.
  util::ScopedContractHandler handler(util::throw_contract_violation);
  const SurfaceCodeLattice d4(4);  // 25 edges per graph: 2^25 is too much
  EXPECT_THROW(ExhaustiveMLDecoder{d4}, util::ContractViolation);
  try {
    const ExhaustiveMLDecoder ml(d4);
    FAIL() << "d=4 construction must trip the enumeration cap";
  } catch (const util::ContractViolation& violation) {
    // The diagnostic must steer callers to the linear-time exact
    // alternative instead of leaving them at a bare assertion.
    EXPECT_NE(std::string(violation.what()).find("erasure_ml"),
              std::string::npos)
        << violation.what();
  }
  const SurfaceCodeLattice d3(3);  // 13 edges: enumerable
  EXPECT_NO_THROW(ExhaustiveMLDecoder{d3});
}

TEST(ExhaustiveMl, RejectsForeignGraphs) {
  const SurfaceCodeLattice lattice(3);
  const SurfaceCodeLattice other(3);
  DecodeInput input;
  input.graph = &other.graph(GraphKind::Z);
  input.syndrome.assign(
      static_cast<std::size_t>(input.graph->num_real_vertices()), 0);
  input.erased.assign(input.graph->num_edges(), 0);
  input.error_prob.assign(input.graph->num_edges(), 0.05);
  EXPECT_THROW(decode_ml(lattice, GraphKind::Z, input),
               std::invalid_argument);
}

TEST(ExhaustiveMl, EmptySyndromeDecodesToIdentity) {
  const SurfaceCodeLattice lattice(3);
  const auto& graph = lattice.graph(GraphKind::Z);
  DecodeInput input;
  input.graph = &graph;
  input.syndrome.assign(static_cast<std::size_t>(graph.num_real_vertices()),
                        0);
  input.erased.assign(graph.num_edges(), 0);
  input.error_prob.assign(graph.num_edges(), 0.05);
  const auto decision = decode_ml(lattice, GraphKind::Z, input);
  EXPECT_EQ(decision.chosen_class, 0);
  for (char c : decision.correction) EXPECT_EQ(c, 0);
  // The trivial class carries almost all probability at 5% noise.
  EXPECT_GT(decision.class_prob[0], decision.class_prob[1]);
}

TEST(ExhaustiveMl, DecisionInvariantsOnRandomNoise) {
  // Structural checks of every decision: the representative correction
  // reproduces the syndrome, lies in the chosen class, and the chosen
  // class carries at least half the total probability mass.
  const SurfaceCodeLattice lattice(3);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.10, 0.15);
  const auto prior = profile.component_error_prob();
  util::Rng rng(4242);
  for (int t = 0; t < 300; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    for (const auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto input = make_decode_input(lattice, kind, sample, prior);
      const auto decision = decode_ml(lattice, kind, input);
      const auto flips = qec::edge_flips(lattice, kind, sample.error);
      EXPECT_TRUE(qec::evaluate_correction(lattice, kind, flips,
                                           decision.correction).valid)
          << "trial " << t;
      EXPECT_EQ(qec::logical_flip(lattice, kind, decision.correction),
                decision.chosen_class == 1)
          << "trial " << t;
      const double total =
          decision.class_prob[0] + decision.class_prob[1];
      ASSERT_GT(total, 0.0);
      EXPECT_GE(decision.class_prob[decision.chosen_class], total / 2.0)
          << "trial " << t;
    }
  }
}

TEST(ExhaustiveMl, ApproximateDecodersNeverBeatMl) {
  // 1000 matched error streams at d = 3: the exact class-ML decoder's
  // success count is an upper bound for SurfNet, Union-Find, and MWPM.
  const SurfaceCodeLattice lattice(3);
  const ExhaustiveMLDecoder ml(lattice);
  const SurfNetDecoder surfnet;
  const UnionFindDecoder union_find;
  const MwpmDecoder mwpm;
  const std::vector<std::pair<std::string, const Decoder*>> rivals{
      {"SurfNetDecoder", &surfnet},
      {"UnionFind", &union_find},
      {"MWPM", &mwpm}};

  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.08, 0.10);
  const auto prior = profile.component_error_prob();

  const int trials = 1000;
  util::Rng rng(12021);
  int ml_successes = 0;
  std::vector<int> rival_successes(rivals.size(), 0);
  for (int t = 0; t < trials; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    const auto ml_result = decode_sample(lattice, sample, prior, ml);
    ASSERT_TRUE(ml_result.z_graph.valid && ml_result.x_graph.valid)
        << "trial " << t;
    if (ml_result.success()) ++ml_successes;
    for (std::size_t r = 0; r < rivals.size(); ++r)
      if (decode_sample(lattice, sample, prior, *rivals[r].second).success())
        ++rival_successes[r];
  }
  for (std::size_t r = 0; r < rivals.size(); ++r)
    EXPECT_GE(ml_successes, rival_successes[r])
        << rivals[r].first << " beat exact ML over " << trials
        << " matched trials";
}

TEST(ExhaustiveMl, PeelingMatchesMlOnPureErasure) {
  // Delfosse-Zemor: on the erasure channel, peeling is maximum-likelihood.
  // Over 1000 seeded erasure-only samples, the class peeling picks must
  // carry at least as much probability as the other class (ties allowed:
  // when the erasure supports a logical operator both classes are
  // equiprobable and any choice is ML).
  const SurfaceCodeLattice lattice(3);
  const ErasureDecoder peeling;
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.30);
  const auto prior = profile.component_error_prob();

  util::Rng rng(777);
  int ties = 0;
  for (int t = 0; t < 1000; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    for (const auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto input = make_decode_input(lattice, kind, sample, prior);
      const auto peel = peeling.decode(input);
      const auto flips = qec::edge_flips(lattice, kind, sample.error);
      ASSERT_TRUE(
          qec::evaluate_correction(lattice, kind, flips, peel).valid)
          << "trial " << t;

      const auto decision = decode_ml(lattice, kind, input);
      const int peel_class =
          qec::logical_flip(lattice, kind, peel) ? 1 : 0;
      EXPECT_GE(decision.class_prob[peel_class],
                decision.class_prob[1 - peel_class])
          << "trial " << t << ": peeling picked the less likely class";
      if (decision.class_prob[peel_class] >
          decision.class_prob[1 - peel_class])
        EXPECT_EQ(decision.chosen_class, peel_class) << "trial " << t;
      else
        ++ties;
    }
  }
  // The 30% erasure rate must actually exercise the tie branch, or the
  // "ties allowed" clause above tests nothing.
  EXPECT_GT(ties, 0);
}

TEST(ExhaustiveMl, AdapterResolvesBothGraphs) {
  // The Decoder-interface adapter must route each graph of a code trial to
  // the right enumeration (wrong-graph resolution would throw or produce
  // invalid corrections).
  const SurfaceCodeLattice lattice(2);
  const ExhaustiveMLDecoder ml(lattice);
  EXPECT_EQ(ml.name(), "ExhaustiveML");
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.12, 0.20);
  const auto prior = profile.component_error_prob();
  util::Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    const auto result = decode_sample(
        lattice, qec::sample_errors(profile, rng), prior, ml);
    EXPECT_TRUE(result.z_graph.valid) << "trial " << t;
    EXPECT_TRUE(result.x_graph.valid) << "trial " << t;
  }
}

}  // namespace
}  // namespace surfnet::decoder
