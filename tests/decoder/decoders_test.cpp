// Cross-decoder property tests: every decoder must always emit a correction
// whose syndrome matches the input exactly (validity), for every distance
// and noise level; at low noise, logical failures must be rare;
// and the MWPM decoder must achieve minimum weight on instances small
// enough to verify by hand.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "decoder/code_trial.h"
#include "decoder/erasure_decoder.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "decoder/workspace.h"
#include "qec/core_support.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::decoder {
namespace {

using qec::GraphKind;
using qec::SurfaceCodeLattice;

std::unique_ptr<Decoder> make_decoder(const std::string& name) {
  if (name == "UnionFind") return std::make_unique<UnionFindDecoder>();
  if (name == "SurfNetDecoder") return std::make_unique<SurfNetDecoder>();
  if (name == "MWPM") return std::make_unique<MwpmDecoder>();
  throw std::invalid_argument("unknown decoder " + name);
}

using ValidityParam = std::tuple<std::string, int, double, double>;

class DecoderValidityTest : public ::testing::TestWithParam<ValidityParam> {};

TEST_P(DecoderValidityTest, CorrectionAlwaysReproducesSyndrome) {
  const auto& [name, d, pauli, erasure] = GetParam();
  const auto decoder = make_decoder(name);
  const SurfaceCodeLattice lattice(d);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), pauli, erasure);
  const auto prior = profile.component_error_prob();
  util::Rng rng(static_cast<unsigned>(d * 1000) +
                static_cast<unsigned>(pauli * 100));
  const int trials = 120;
  for (int t = 0; t < trials; ++t) {
    const auto result = decode_sample(
        lattice, qec::sample_errors(profile, rng), prior, *decoder);
    EXPECT_TRUE(result.z_graph.valid) << name << " d=" << d << " t=" << t;
    EXPECT_TRUE(result.x_graph.valid) << name << " d=" << d << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecoderValidityTest,
    ::testing::Combine(::testing::Values("UnionFind", "SurfNetDecoder",
                                         "MWPM"),
                       ::testing::Values(2, 3, 5, 7),
                       ::testing::Values(0.01, 0.08, 0.20),
                       ::testing::Values(0.0, 0.15, 0.40)));

using LowNoiseParam = std::tuple<std::string, int>;

class DecoderLowNoiseTest : public ::testing::TestWithParam<LowNoiseParam> {};

TEST_P(DecoderLowNoiseTest, LowNoiseMostlySucceeds) {
  const auto& [name, d] = GetParam();
  const auto decoder = make_decoder(name);
  const SurfaceCodeLattice lattice(d);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.01, 0.02);
  util::Rng rng(77);
  const double ler = logical_error_rate(lattice, profile, *decoder, 400, rng);
  EXPECT_LT(ler, 0.05) << name << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DecoderLowNoiseTest,
                         ::testing::Combine(::testing::Values("UnionFind",
                                                              "SurfNetDecoder",
                                                              "MWPM"),
                                            ::testing::Values(3, 5, 7)));

using SingleErrorParam = std::tuple<std::string, int>;

class SingleErrorTest : public ::testing::TestWithParam<SingleErrorParam> {};

TEST_P(SingleErrorTest, EverySingleQubitErrorIsCorrected) {
  // A distance-d code corrects every error of weight <= (d - 1) / 2, so at
  // d >= 3 each decoder must undo X, Y and Z on any one data qubit.
  const auto& [name, d] = GetParam();
  const auto decoder = make_decoder(name);
  const SurfaceCodeLattice lattice(d);
  const auto n = static_cast<std::size_t>(lattice.num_data_qubits());
  const std::vector<double> prior(n, 0.01);
  for (std::size_t q = 0; q < n; ++q) {
    for (const qec::Pauli p : {qec::Pauli::X, qec::Pauli::Y, qec::Pauli::Z}) {
      qec::ErrorSample sample;
      sample.error.assign(n, qec::Pauli::I);
      sample.erased.assign(n, 0);
      sample.error[q] = p;
      const auto result = decode_sample(lattice, sample, prior, *decoder);
      EXPECT_TRUE(result.success())
          << name << " d=" << d << " qubit " << q << " " << qec::to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SingleErrorTest,
                         ::testing::Combine(::testing::Values("UnionFind",
                                                              "SurfNetDecoder",
                                                              "MWPM"),
                                            ::testing::Values(3, 4, 5, 7)));

TEST(DecoderScaling, LargerDistanceSuppressesLogicalErrors) {
  // Below threshold, distance 7 must beat distance 3 for every decoder.
  for (const char* name : {"UnionFind", "SurfNetDecoder", "MWPM"}) {
    const auto decoder = make_decoder(name);
    double rates[2];
    int i = 0;
    for (int d : {3, 7}) {
      const SurfaceCodeLattice lattice(d);
      const auto profile =
          qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.03, 0.05);
      util::Rng rng(5150);
      rates[i++] = logical_error_rate(lattice, profile, *decoder, 1500, rng);
    }
    EXPECT_LT(rates[1], rates[0] + 0.01) << name;
  }
}

TEST(Mwpm, CorrectsSingleErrorExactly) {
  const SurfaceCodeLattice lattice(5);
  const MwpmDecoder decoder;
  for (int q = 0; q < lattice.num_data_qubits(); ++q) {
    std::vector<qec::Pauli> error(
        static_cast<std::size_t>(lattice.num_data_qubits()), qec::Pauli::I);
    error[static_cast<std::size_t>(q)] = qec::Pauli::X;
    const auto& graph = lattice.graph(GraphKind::Z);
    DecodeInput input;
    input.graph = &graph;
    const auto flips = qec::edge_flips(lattice, GraphKind::Z, error);
    input.syndrome = qec::syndrome_bitmap(graph, flips);
    input.erased.assign(graph.num_edges(), 0);
    input.error_prob.assign(graph.num_edges(), 0.05);
    const auto correction = decoder.decode(input);
    // With uniform weights a single error is its own unique minimum-weight
    // explanation.
    EXPECT_EQ(correction, flips) << "qubit " << q;
  }
}

TEST(Mwpm, WeightsSteerThePathThroughUnreliableQubits) {
  // Two syndromes two steps apart; one connecting path is made very
  // unreliable (error-prone), so MWPM must route the correction through it.
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  // Error on two vertically adjacent qubits sharing measure-Z (2,3):
  // (1,3) and (3,3).
  const int q1 = lattice.data_index({1, 3});
  const int q2 = lattice.data_index({3, 3});
  ASSERT_GE(q1, 0);
  ASSERT_GE(q2, 0);
  std::vector<char> flips(graph.num_edges(), 0);
  flips[static_cast<std::size_t>(q1)] = 1;
  flips[static_cast<std::size_t>(q2)] = 1;

  DecodeInput input;
  input.graph = &graph;
  input.syndrome = qec::syndrome_bitmap(graph, flips);
  input.erased.assign(graph.num_edges(), 0);
  // Reliable everywhere except exactly the true error path.
  input.error_prob.assign(graph.num_edges(), 0.001);
  input.error_prob[static_cast<std::size_t>(q1)] = 0.45;
  input.error_prob[static_cast<std::size_t>(q2)] = 0.45;

  const MwpmDecoder decoder;
  const auto correction = decoder.decode(input);
  EXPECT_EQ(correction, flips);
}

TEST(Mwpm, ErasedPathPreferred) {
  // Same two syndromes, but now steer via erasure flags instead of priors.
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  const int q1 = lattice.data_index({1, 3});
  const int q2 = lattice.data_index({3, 3});
  std::vector<char> flips(graph.num_edges(), 0);
  flips[static_cast<std::size_t>(q1)] = 1;
  flips[static_cast<std::size_t>(q2)] = 1;

  DecodeInput input;
  input.graph = &graph;
  input.syndrome = qec::syndrome_bitmap(graph, flips);
  input.erased.assign(graph.num_edges(), 0);
  input.erased[static_cast<std::size_t>(q1)] = 1;
  input.erased[static_cast<std::size_t>(q2)] = 1;
  input.error_prob.assign(graph.num_edges(), 0.01);

  const MwpmDecoder decoder;
  const auto correction = decoder.decode(input);
  EXPECT_EQ(correction, flips);
}

TEST(Mwpm, EmptySyndromeGivesEmptyCorrection) {
  const SurfaceCodeLattice lattice(3);
  const auto& graph = lattice.graph(GraphKind::Z);
  DecodeInput input;
  input.graph = &graph;
  input.syndrome.assign(static_cast<std::size_t>(graph.num_real_vertices()),
                        0);
  input.erased.assign(graph.num_edges(), 0);
  input.error_prob.assign(graph.num_edges(), 0.05);
  const MwpmDecoder decoder;
  for (char c : decoder.decode(input)) EXPECT_EQ(c, 0);
}

TEST(Decoders, RejectMalformedInputBeforeReadingIt) {
  // Every library decoder checks its input first: a null graph or a
  // per-vertex/per-edge vector one entry short throws instead of reading
  // past it, on both decode paths.
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  DecodeInput valid;
  valid.graph = &graph;
  valid.syndrome.assign(static_cast<std::size_t>(graph.num_real_vertices()),
                        0);
  valid.erased.assign(graph.num_edges(), 0);
  valid.error_prob.assign(graph.num_edges(), 0.05);

  std::vector<std::pair<std::string, DecodeInput>> malformed;
  malformed.emplace_back("null graph", valid);
  malformed.back().second.graph = nullptr;
  malformed.emplace_back("short syndrome", valid);
  malformed.back().second.syndrome.resize(1);
  malformed.emplace_back("short erased", valid);
  malformed.back().second.erased.pop_back();
  malformed.emplace_back("short error_prob", valid);
  malformed.back().second.error_prob.pop_back();

  const UnionFindDecoder union_find;
  const SurfNetDecoder surfnet;
  const MwpmDecoder mwpm;
  const ErasureDecoder erasure;
  for (const Decoder* decoder :
       std::initializer_list<const Decoder*>{&union_find, &surfnet, &mwpm,
                                             &erasure}) {
    DecodeWorkspace ws;
    EXPECT_NO_THROW(decoder->decode(valid, ws)) << decoder->name();
    for (const auto& [what, input] : malformed) {
      EXPECT_THROW(decoder->decode(input), std::invalid_argument)
          << decoder->name() << ": " << what;
      EXPECT_THROW(decoder->decode(input, ws), std::invalid_argument)
          << decoder->name() << ": " << what;
    }
  }
}

TEST(SurfNetDecoder, RejectsNonPositiveStepSize) {
  EXPECT_THROW(SurfNetDecoder(0.0), std::invalid_argument);
  EXPECT_THROW(SurfNetDecoder(-1.0), std::invalid_argument);
}

TEST(SurfNetDecoder, StepSizeDefaultsToTwoThirds) {
  const SurfNetDecoder decoder;
  EXPECT_NEAR(decoder.step_size(), 2.0 / 3.0, 1e-12);
}

TEST(EdgeWeight, MonotoneDecreasingInErrorProbability) {
  EXPECT_GT(edge_weight(0.01), edge_weight(0.1));
  EXPECT_GT(edge_weight(0.1), edge_weight(0.5));
  EXPECT_NEAR(edge_weight(0.5), std::log(2.0), 1e-12);
}

TEST(CodeTrial, SuccessRequiresBothGraphs) {
  CodeTrialResult r;
  r.z_graph = {true, false};
  r.x_graph = {true, true};  // logical error on X-graph
  EXPECT_FALSE(r.success());
  r.x_graph = {true, false};
  EXPECT_TRUE(r.success());
}


TEST(ErasureDecoder, OptimalOnPureErasureNoise) {
  // Erasure-only noise is always decoded validly, and for the erasure
  // channel peeling is maximum-likelihood: below 50% erasure the logical
  // error rate must fall with distance.
  const ErasureDecoder decoder;
  double rates[2];
  int i = 0;
  for (int d : {3, 7}) {
    const SurfaceCodeLattice lattice(d);
    const auto profile =
        qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.25);
    util::Rng rng(313);
    rates[i++] = logical_error_rate(lattice, profile, decoder, 2000, rng);
  }
  EXPECT_LT(rates[1], rates[0]);
}

TEST(ErasureDecoder, ValidityOnErasureOnlyNoise) {
  const ErasureDecoder decoder;
  const SurfaceCodeLattice lattice(5);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.35);
  const auto prior = profile.component_error_prob();
  util::Rng rng(314);
  for (int t = 0; t < 200; ++t) {
    const auto result = decode_sample(
        lattice, qec::sample_errors(profile, rng), prior, decoder);
    EXPECT_TRUE(result.z_graph.valid);
    EXPECT_TRUE(result.x_graph.valid);
  }
}

TEST(ErasureDecoder, ThrowsOnPauliNoiseOutsideErasures) {
  const ErasureDecoder decoder;
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(qec::GraphKind::Z);
  DecodeInput input;
  input.graph = &graph;
  // A syndrome with no erasures cannot be peeled.
  std::vector<char> flips(graph.num_edges(), 0);
  flips[graph.num_edges() / 2] = 1;
  input.syndrome = qec::syndrome_bitmap(graph, flips);
  input.erased.assign(graph.num_edges(), 0);
  input.error_prob.assign(graph.num_edges(), 0.01);
  EXPECT_THROW(decoder.decode(input), std::logic_error);
}


TEST(DecoderAccuracy, MwpmNeverMuchWorseThanUnionFind) {
  // Exact minimum-weight matching is the accuracy gold standard among the
  // implemented decoders: on matched error streams its logical error rate
  // must not exceed Union-Find's beyond Monte-Carlo noise.
  const SurfaceCodeLattice lattice(7);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.06, 0.10);
  const MwpmDecoder mwpm;
  const UnionFindDecoder union_find;
  util::Rng rng_a(909), rng_b(909);  // identical error streams
  const double ler_mwpm = logical_error_rate(
      lattice, profile, mwpm, 1200, rng_a);
  const double ler_uf = logical_error_rate(
      lattice, profile, union_find, 1200, rng_b);
  EXPECT_LE(ler_mwpm, ler_uf + 0.02);
}

TEST(DecoderAccuracy, SurfNetBeatsUnionFindOnSplitNoise) {
  // The headline of Fig. 8: with the Core/Support fidelity split, the
  // prior-aware SurfNet Decoder outperforms the split-blind Union-Find.
  const SurfaceCodeLattice lattice(11);
  const auto partition = qec::make_core_support(lattice);
  const auto profile =
      qec::NoiseProfile::core_support(partition, 0.07, 0.15);
  const SurfNetDecoder surfnet;
  const UnionFindDecoder union_find;
  util::Rng rng_a(911), rng_b(911);
  const double ler_sn = logical_error_rate(
      lattice, profile, surfnet, 4000, rng_a);
  const double ler_uf = logical_error_rate(
      lattice, profile, union_find, 4000, rng_b);
  EXPECT_LT(ler_sn, ler_uf);
}

TEST(DecoderDeterminism, SameSeedSameOutcome) {
  const SurfaceCodeLattice lattice(5);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.08, 0.12);
  for (const char* name : {"UnionFind", "SurfNetDecoder", "MWPM"}) {
    const auto decoder = make_decoder(name);
    util::Rng rng_a(31337), rng_b(31337);
    const double a = logical_error_rate(lattice, profile, *decoder, 300, rng_a);
    const double b = logical_error_rate(lattice, profile, *decoder, 300, rng_b);
    EXPECT_DOUBLE_EQ(a, b) << name;
  }
}


TEST(SurfNetDecoder, DegeneratesToUnionFindOnUniformPriors) {
  // With identical priors on every edge the weighted growth is a uniform
  // time-rescaling of Union-Find's half-edge growth: the same edges cross
  // in the same order, so the grown regions — and the peeled corrections —
  // coincide exactly.
  const SurfaceCodeLattice lattice(7);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.08, 0.12);
  const auto prior = profile.component_error_prob();
  const SurfNetDecoder surfnet;
  const UnionFindDecoder union_find;
  util::Rng rng(1234);
  for (int t = 0; t < 60; ++t) {
    const auto sample = qec::sample_errors(profile, rng);
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto input = make_decode_input(lattice, kind, sample, prior);
      EXPECT_EQ(surfnet.decode(input), union_find.decode(input))
          << "trial " << t;
    }
  }
}

}  // namespace
}  // namespace surfnet::decoder
