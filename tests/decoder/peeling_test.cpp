#include "decoder/peeling.h"

#include <gtest/gtest.h>

#include "qec/error_model.h"
#include "qec/logical.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::decoder {
namespace {

using qec::GraphKind;
using qec::SurfaceCodeLattice;

TEST(Peeling, EmptySyndromeEmptyCorrection) {
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  const std::vector<char> region(graph.num_edges(), 1);
  const std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  const auto correction = peel_correction(graph, region, syndrome);
  for (char c : correction) EXPECT_EQ(c, 0);
}

TEST(Peeling, ThrowsOnSyndromeOutsideRegion) {
  const SurfaceCodeLattice lattice(3);
  const auto& graph = lattice.graph(GraphKind::Z);
  const std::vector<char> region(graph.num_edges(), 0);  // empty region
  std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  syndrome[0] = 1;
  EXPECT_THROW(peel_correction(graph, region, syndrome), std::logic_error);
}

TEST(Peeling, CorrectsSingleErasedError) {
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  // Erase one interior edge and put the error exactly there.
  std::vector<char> flips(graph.num_edges(), 0);
  std::vector<char> region(graph.num_edges(), 0);
  const std::size_t target = graph.num_edges() / 2;
  flips[target] = 1;
  region[target] = 1;
  const auto syndrome = qec::syndrome_bitmap(graph, flips);
  const auto correction = peel_correction(graph, region, syndrome);
  EXPECT_EQ(correction, flips);
}

class PeelingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PeelingPropertyTest, ErasureOnlyDecodingIsAlwaysValid) {
  // Property (Delfosse-Zemor): for erasure-only noise, peeling over the
  // erased region yields a correction with the exact syndrome, and the
  // residual is confined to the erased region.
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  util::Rng rng(40 + static_cast<unsigned>(d));
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.0, 0.3);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = qec::sample_errors(profile, rng);
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto& graph = lattice.graph(kind);
      const auto flips = qec::edge_flips(lattice, kind, sample.error);
      const auto region = qec::erased_edges(lattice, kind, sample.erased);
      const auto syndrome = qec::syndrome_bitmap(graph, flips);
      const auto correction = peel_correction(graph, region, syndrome);
      EXPECT_TRUE(
          qec::evaluate_correction(lattice, kind, flips, correction).valid)
          << "d=" << d << " trial=" << trial;
      // Correction must stay inside the erased region.
      for (std::size_t e = 0; e < correction.size(); ++e) {
        if (correction[e]) {
          EXPECT_TRUE(region[e]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, PeelingPropertyTest,
                         ::testing::Values(2, 3, 5, 7));

TEST(Peeling, BoundaryComponentAbsorbsOddParity) {
  // A single syndrome whose region connects to the boundary must be matched
  // into the boundary.
  const SurfaceCodeLattice lattice(3);
  const auto& graph = lattice.graph(GraphKind::Z);
  // Data qubit (0,0) is a west boundary edge; erase it and flip it.
  const int q = lattice.data_index({0, 0});
  ASSERT_GE(q, 0);
  std::vector<char> flips(graph.num_edges(), 0);
  flips[static_cast<std::size_t>(q)] = 1;
  std::vector<char> region = flips;
  const auto syndrome = qec::syndrome_bitmap(graph, flips);
  const auto correction = peel_correction(graph, region, syndrome);
  EXPECT_EQ(correction, flips);
}

}  // namespace
}  // namespace surfnet::decoder
