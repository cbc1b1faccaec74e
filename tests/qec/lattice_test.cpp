#include "qec/lattice.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "qec/core_support.h"
#include "qec/logical.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::qec {
namespace {

class LatticeTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeTest, QubitCounts) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  EXPECT_EQ(lattice.num_data_qubits(), d * d + (d - 1) * (d - 1));
  EXPECT_EQ(lattice.num_measure_z(), d * (d - 1));
  EXPECT_EQ(lattice.num_measure_x(), (d - 1) * d);
}

TEST_P(LatticeTest, EveryDataQubitIsOneEdgeInEachGraph) {
  const SurfaceCodeLattice lattice(GetParam());
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& graph = lattice.graph(kind);
    ASSERT_EQ(static_cast<int>(graph.num_edges()), lattice.num_data_qubits());
    std::set<int> seen;
    for (std::size_t e = 0; e < graph.num_edges(); ++e)
      seen.insert(graph.edge(e).data_qubit);
    EXPECT_EQ(static_cast<int>(seen.size()), lattice.num_data_qubits());
    // Edge index equals data-qubit index (relied upon by logical_flip).
    for (std::size_t e = 0; e < graph.num_edges(); ++e)
      EXPECT_EQ(graph.edge(e).data_qubit, static_cast<int>(e));
  }
}

TEST_P(LatticeTest, BoundaryEdgeCounts) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& graph = lattice.graph(kind);
    int boundary_edges = 0;
    for (std::size_t e = 0; e < graph.num_edges(); ++e) {
      const auto& edge = graph.edge(e);
      EXPECT_FALSE(graph.is_boundary(edge.u) && graph.is_boundary(edge.v));
      if (graph.is_boundary(edge.u) || graph.is_boundary(edge.v))
        ++boundary_edges;
    }
    // d boundary edges on each of the two boundaries.
    EXPECT_EQ(boundary_edges, 2 * d);
  }
}

TEST_P(LatticeTest, VertexDegreesAreTwoThreeOrFour) {
  const SurfaceCodeLattice lattice(GetParam());
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& graph = lattice.graph(kind);
    for (int v = 0; v < graph.num_real_vertices(); ++v) {
      const auto deg = graph.incident(v).size();
      EXPECT_GE(deg, 2u);
      EXPECT_LE(deg, 4u);
    }
  }
}

TEST_P(LatticeTest, LogicalOperatorConnectsBoundaries) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto chain = lattice.logical_operator(kind);
    EXPECT_EQ(static_cast<int>(chain.size()), d);
    const auto& graph = lattice.graph(kind);
    int boundary_touches = 0;
    for (int q : chain) {
      const auto& edge = graph.edge(static_cast<std::size_t>(q));
      if (graph.is_boundary(edge.u) || graph.is_boundary(edge.v))
        ++boundary_touches;
    }
    EXPECT_EQ(boundary_touches, 2);  // first and last qubit of the chain
  }
}

TEST_P(LatticeTest, LogicalCutHasDistanceManyQubits) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  EXPECT_EQ(static_cast<int>(lattice.logical_cut(GraphKind::Z).size()), d);
  EXPECT_EQ(static_cast<int>(lattice.logical_cut(GraphKind::X).size()), d);
}

TEST_P(LatticeTest, CoreCrossSize) {
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  const auto part = make_core_support(lattice);
  EXPECT_EQ(part.num_core, 2 * d - 1);
  EXPECT_EQ(part.num_core + part.num_support, lattice.num_data_qubits());
}

TEST_P(LatticeTest, CoreBlocksEveryLogicalCut) {
  // The Core must intersect every straight logical chain: remove Core
  // qubits and check each graph's boundary-to-boundary straight chains all
  // contain at least one Core qubit. (Stronger connectivity statements are
  // covered by the decoder tests.)
  const SurfaceCodeLattice lattice(GetParam());
  const auto part = make_core_support(lattice);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto chain = lattice.logical_operator(kind);
    int core_hits = 0;
    for (int q : chain) core_hits += part.is_core[static_cast<std::size_t>(q)];
    EXPECT_GE(core_hits, 1);
  }
}

TEST_P(LatticeTest, DataIndexRoundTrip) {
  const SurfaceCodeLattice lattice(GetParam());
  for (int q = 0; q < lattice.num_data_qubits(); ++q)
    EXPECT_EQ(lattice.data_index(lattice.data_coord(q)), q);
  EXPECT_EQ(lattice.data_index({0, 1}), -1);  // measurement site
  EXPECT_EQ(lattice.data_index({-1, 0}), -1);
}

// The Pauli that `kind`'s graph detects: X on the Z-graph, Z on the X-graph.
Pauli detected_by(GraphKind kind) {
  return kind == GraphKind::Z ? Pauli::X : Pauli::Z;
}

GraphKind other(GraphKind kind) {
  return kind == GraphKind::Z ? GraphKind::X : GraphKind::Z;
}

/// Multiply `error` by the stabilizer measured at `vertex` of the graph
/// opposite to `kind`: the data qubits around it, as `kind`'s Pauli.
void apply_stabilizer(const SurfaceCodeLattice& lattice, GraphKind kind,
                      int vertex, std::vector<Pauli>& error) {
  const auto& stabilizers = lattice.graph(other(kind));
  for (const int e : stabilizers.incident(vertex)) {
    auto& p = error[static_cast<std::size_t>(
        stabilizers.edge(static_cast<std::size_t>(e)).data_qubit)];
    p = p * detected_by(kind);
  }
}

TEST_P(LatticeTest, EveryStabilizerHasEmptySyndromeAndNoLogicalFlip) {
  // The data qubits around a measure-X qubit form an X-stabilizer: as X
  // errors they close a cycle in the Z-graph, so they light no syndrome and
  // never cross the logical cut an odd number of times (and likewise each
  // Z-stabilizer in the X-graph).
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const auto& stabilizers = lattice.graph(other(kind));
    for (int v = 0; v < stabilizers.num_real_vertices(); ++v) {
      std::vector<Pauli> error(
          static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
      apply_stabilizer(lattice, kind, v, error);
      const auto flips = edge_flips(lattice, kind, error);
      EXPECT_TRUE(syndrome_vertices(lattice.graph(kind), flips).empty())
          << "d=" << d << " stabilizer " << v;
      EXPECT_FALSE(logical_flip(lattice, kind, flips))
          << "d=" << d << " stabilizer " << v;
    }
  }
}

TEST_P(LatticeTest, LogicalFlipIsInvariantUnderStabilizers) {
  // Every representative of the logical operator (the straight chain times
  // any product of stabilizers) is invisible to the syndrome and flips the
  // logical; a product of stabilizers alone never does.
  const int d = GetParam();
  const SurfaceCodeLattice lattice(d);
  util::Rng rng(500 + static_cast<unsigned>(d));
  for (auto kind : {GraphKind::Z, GraphKind::X}) {
    const int num_stabilizers =
        lattice.graph(other(kind)).num_real_vertices();
    for (int t = 0; t < 25; ++t) {
      std::vector<Pauli> trivial(
          static_cast<std::size_t>(lattice.num_data_qubits()), Pauli::I);
      for (int v = 0; v < num_stabilizers; ++v)
        if (rng.bernoulli(0.5)) apply_stabilizer(lattice, kind, v, trivial);
      auto logical = trivial;
      for (const int q : lattice.logical_operator(kind)) {
        auto& p = logical[static_cast<std::size_t>(q)];
        p = p * detected_by(kind);
      }
      const auto trivial_flips = edge_flips(lattice, kind, trivial);
      const auto logical_flips = edge_flips(lattice, kind, logical);
      EXPECT_TRUE(
          syndrome_vertices(lattice.graph(kind), logical_flips).empty())
          << "d=" << d << " t=" << t;
      EXPECT_FALSE(logical_flip(lattice, kind, trivial_flips))
          << "d=" << d << " t=" << t;
      EXPECT_TRUE(logical_flip(lattice, kind, logical_flips))
          << "d=" << d << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, LatticeTest,
                         ::testing::Values(2, 3, 4, 5, 7, 9, 11));

TEST(Lattice, RejectsTooSmallDistance) {
  EXPECT_THROW(SurfaceCodeLattice(1), std::invalid_argument);
  EXPECT_THROW(SurfaceCodeLattice(0), std::invalid_argument);
}

TEST(Lattice, RejectsDistanceWhoseIdsOverflowInt) {
  // Refused before anything is allocated: a lattice near the bound takes
  // gigabytes, so none is built here.
  EXPECT_THROW(SurfaceCodeLattice(SurfaceCodeLattice::kMaxDistance + 1),
               std::invalid_argument);
  EXPECT_THROW(SurfaceCodeLattice(std::numeric_limits<int>::max()),
               std::invalid_argument);
}

TEST(Lattice, PaperExampleDistance4) {
  // Paper Sec. V-A example: 25 data qubits, 7 of them in the Core.
  const SurfaceCodeLattice lattice(4);
  EXPECT_EQ(lattice.num_data_qubits(), 25);
  EXPECT_EQ(make_core_support(lattice).num_core, 7);
}

TEST(Lattice, PaperFig2Distance3) {
  // Fig. 2(a): 13 data qubits, 6 measure-Z, 6 measure-X.
  const SurfaceCodeLattice lattice(3);
  EXPECT_EQ(lattice.num_data_qubits(), 13);
  EXPECT_EQ(lattice.num_measure_z(), 6);
  EXPECT_EQ(lattice.num_measure_x(), 6);
}

}  // namespace
}  // namespace surfnet::qec
