#include "qec/rotated_lattice.h"

#include <gtest/gtest.h>

#include <set>

#include "decoder/code_trial.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "qec/core_support.h"
#include "qec/error_model.h"
#include "qec/logical.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::qec {
namespace {

class RotatedLatticeTest : public ::testing::TestWithParam<int> {};

TEST_P(RotatedLatticeTest, QubitAndStabilizerCounts) {
  const int d = GetParam();
  const RotatedSurfaceCodeLattice lattice(d);
  EXPECT_EQ(lattice.num_data_qubits(), d * d);
  // (d^2 - 1) / 2 stabilizers of each type.
  EXPECT_EQ(lattice.num_stabilizers(GraphKind::Z), (d * d - 1) / 2);
  EXPECT_EQ(lattice.num_stabilizers(GraphKind::X), (d * d - 1) / 2);
}

TEST_P(RotatedLatticeTest, EveryDataQubitIsOneEdgeInEachGraph) {
  const RotatedSurfaceCodeLattice lattice(GetParam());
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& graph = lattice.graph(kind);
    ASSERT_EQ(static_cast<int>(graph.num_edges()), lattice.num_data_qubits());
    for (std::size_t e = 0; e < graph.num_edges(); ++e)
      EXPECT_EQ(graph.edge(e).data_qubit, static_cast<int>(e));
  }
}

TEST_P(RotatedLatticeTest, StabilizerWeightsAreTwoToFour) {
  const RotatedSurfaceCodeLattice lattice(GetParam());
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& graph = lattice.graph(kind);
    for (int v = 0; v < graph.num_real_vertices(); ++v) {
      const auto weight = graph.incident(v).size();
      EXPECT_GE(weight, 2u);
      EXPECT_LE(weight, 4u);
    }
  }
}

TEST_P(RotatedLatticeTest, LogicalOperatorHasEmptySyndromeAndFlipsCut) {
  const int d = GetParam();
  const RotatedSurfaceCodeLattice lattice(d);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    std::vector<Pauli> error(
        static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
    const Pauli op = (kind == GraphKind::Z) ? Pauli::X : Pauli::Z;
    const auto chain = lattice.logical_operator(kind);
    EXPECT_EQ(static_cast<int>(chain.size()), d);
    for (int q : chain) error[static_cast<std::size_t>(q)] = op;
    const auto flips = edge_flips(lattice, kind, error);
    EXPECT_TRUE(syndrome_vertices(lattice.graph(kind), flips).empty())
        << "d=" << d;
    EXPECT_TRUE(logical_flip(lattice, kind, flips)) << "d=" << d;
  }
}

TEST_P(RotatedLatticeTest, SingleErrorsAreCorrectable) {
  const RotatedSurfaceCodeLattice lattice(GetParam());
  const decoder::SurfNetDecoder decoder;
  const auto prior = std::vector<double>(
      static_cast<std::size_t>(lattice.num_data_qubits()), 0.01);
  for (int q = 0; q < lattice.num_data_qubits(); ++q) {
    ErrorSample sample;
    sample.error.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                        Pauli::I);
    sample.erased.assign(static_cast<std::size_t>(lattice.num_data_qubits()),
                         0);
    sample.error[static_cast<std::size_t>(q)] = Pauli::Y;
    const auto outcome =
        decoder::decode_sample(lattice, sample, prior, decoder);
    EXPECT_TRUE(outcome.success()) << "qubit " << q;
  }
}

TEST_P(RotatedLatticeTest, CoreCrossSize) {
  const int d = GetParam();
  const RotatedSurfaceCodeLattice lattice(d);
  const auto part = make_core_support(lattice);
  EXPECT_EQ(part.num_core, 2 * d - 1);
  EXPECT_EQ(part.num_support, d * d - (2 * d - 1));
}

TEST_P(RotatedLatticeTest, DecodersAreValidOnRandomNoise) {
  const RotatedSurfaceCodeLattice lattice(GetParam());
  const auto profile =
      NoiseProfile::uniform(lattice.num_data_qubits(), 0.08, 0.15);
  const auto prior =
      profile.component_error_prob(PauliChannel::IndependentXZ);
  const decoder::SurfNetDecoder surfnet;
  const decoder::UnionFindDecoder union_find;
  util::Rng rng(31 + static_cast<unsigned>(GetParam()));
  for (int t = 0; t < 150; ++t) {
    for (const decoder::Decoder* dec :
         {static_cast<const decoder::Decoder*>(&surfnet),
          static_cast<const decoder::Decoder*>(&union_find)}) {
      const auto result = decoder::decode_sample(
          lattice, sample_errors(profile, PauliChannel::IndependentXZ, rng),
          prior, *dec);
      EXPECT_TRUE(result.z_graph.valid);
      EXPECT_TRUE(result.x_graph.valid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, RotatedLatticeTest,
                         ::testing::Values(3, 5, 7, 9));

TEST(RotatedLattice, RejectsEvenOrTinyDistance) {
  EXPECT_THROW(RotatedSurfaceCodeLattice(2), std::invalid_argument);
  EXPECT_THROW(RotatedSurfaceCodeLattice(4), std::invalid_argument);
  EXPECT_THROW(RotatedSurfaceCodeLattice(1), std::invalid_argument);
}

TEST(RotatedLattice, FewerQubitsThanUnrotatedAtSameDistance) {
  // The headline of the rotated layout: d^2 vs d^2 + (d-1)^2.
  const RotatedSurfaceCodeLattice rotated(5);
  EXPECT_EQ(rotated.num_data_qubits(), 25);  // vs 41 unrotated
}

TEST(RotatedLattice, DistanceScalingSuppressesErrors) {
  const decoder::SurfNetDecoder decoder;
  double rates[2];
  int i = 0;
  for (int d : {3, 7}) {
    const RotatedSurfaceCodeLattice lattice(d);
    const auto profile =
        NoiseProfile::uniform(lattice.num_data_qubits(), 0.03, 0.05);
    util::Rng rng(77);
    rates[i++] = decoder::logical_error_rate(
        lattice, profile, PauliChannel::IndependentXZ, decoder, 1500, rng);
  }
  EXPECT_LT(rates[1], rates[0] + 0.01);
}

}  // namespace
}  // namespace surfnet::qec
