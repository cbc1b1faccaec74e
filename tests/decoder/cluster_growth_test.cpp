#include "decoder/cluster_growth.h"

#include <gtest/gtest.h>

#include "decoder/dsu.h"
#include "qec/error_model.h"
#include "qec/syndrome.h"
#include "util/rng.h"

namespace surfnet::decoder {
namespace {

using qec::GraphKind;
using qec::SurfaceCodeLattice;

TEST(Dsu, BasicUnionFind) {
  Dsu dsu(6);
  EXPECT_FALSE(dsu.same(0, 1));
  EXPECT_GE(dsu.unite(0, 1), 0);
  EXPECT_TRUE(dsu.same(0, 1));
  EXPECT_EQ(dsu.unite(0, 1), -1);  // already joined
  dsu.unite(2, 3);
  dsu.unite(1, 3);
  EXPECT_TRUE(dsu.same(0, 2));
  EXPECT_EQ(dsu.size_of(0), 4u);
  EXPECT_FALSE(dsu.same(0, 5));
}

TEST(Dsu, UnionBySizeKeepsLargerRoot) {
  Dsu dsu(5);
  dsu.unite(0, 1);
  dsu.unite(0, 2);
  const int root = dsu.find(0);
  EXPECT_EQ(dsu.unite(3, 0), root);  // singleton 3 joins the bigger set
}

TEST(ClusterGrowth, NoSyndromeNoGrowth) {
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 0.5);
  const std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  const auto region = grow_clusters(graph, syndrome, config);
  for (char r : region) EXPECT_EQ(r, 0);
}

TEST(ClusterGrowth, PregrownEdgesStayInRegion) {
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 0.5);
  config.pregrown.assign(graph.num_edges(), 0);
  config.pregrown[3] = 1;
  config.pregrown[10] = 1;
  const std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  const auto region = grow_clusters(graph, syndrome, config);
  EXPECT_TRUE(region[3]);
  EXPECT_TRUE(region[10]);
}

TEST(ClusterGrowth, SingleSyndromeReachesBoundaryOrPair) {
  // A single syndrome must grow until its cluster touches a boundary.
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 0.5);
  std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  syndrome[static_cast<std::size_t>(graph.num_real_vertices() / 2)] = 1;
  const auto region = grow_clusters(graph, syndrome, config);
  bool touches_boundary = false;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    if (!region[e]) continue;
    const auto& edge = graph.edge(e);
    if (graph.is_boundary(edge.u) || graph.is_boundary(edge.v))
      touches_boundary = true;
  }
  EXPECT_TRUE(touches_boundary);
}

TEST(ClusterGrowth, TwoAdjacentSyndromesFuseQuickly) {
  // Two syndromes sharing an edge should fuse via that edge in one round
  // (0.5 + 0.5 growth) and stop — the region should stay very local.
  const SurfaceCodeLattice lattice(9);
  const auto& graph = lattice.graph(GraphKind::Z);
  // Find an interior edge between two real vertices.
  int chosen = -1;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const auto& edge = graph.edge(e);
    if (!graph.is_boundary(edge.u) && !graph.is_boundary(edge.v)) {
      chosen = static_cast<int>(e);
      break;
    }
  }
  ASSERT_GE(chosen, 0);
  const auto& edge = graph.edge(static_cast<std::size_t>(chosen));
  std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  syndrome[static_cast<std::size_t>(edge.u)] = 1;
  syndrome[static_cast<std::size_t>(edge.v)] = 1;
  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 0.5);
  const auto region = grow_clusters(graph, syndrome, config);
  EXPECT_TRUE(region[static_cast<std::size_t>(chosen)]);
  std::size_t region_size = 0;
  for (char r : region) region_size += static_cast<std::size_t>(r);
  // One round of half-edge growth touches only edges incident to the two
  // syndromes (at most 8), all of which may complete via double-sided
  // growth in the same round; the cluster is then even and stops.
  EXPECT_LE(region_size, 8u);
}

TEST(ClusterGrowth, RegionParityInvariant) {
  // Property: every connected component of the final region has even
  // syndrome parity or touches a boundary — the precondition for peeling.
  const SurfaceCodeLattice lattice(7);
  util::Rng rng(99);
  const auto profile =
      qec::NoiseProfile::uniform(lattice.num_data_qubits(), 0.10, 0.10);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = qec::sample_errors(profile, rng);
    for (auto kind : {GraphKind::Z, GraphKind::X}) {
      const auto& graph = lattice.graph(kind);
      const auto flips = qec::edge_flips(lattice, kind, sample.error);
      const auto syndrome = qec::syndrome_bitmap(graph, flips);
      GrowthConfig config;
      config.speed.assign(graph.num_edges(), 0.5);
      config.pregrown = qec::erased_edges(lattice, kind, sample.erased);
      const auto region = grow_clusters(graph, syndrome, config);

      // Components over region edges (real vertices only).
      Dsu dsu(static_cast<std::size_t>(graph.num_real_vertices()));
      std::vector<char> touches(
          static_cast<std::size_t>(graph.num_real_vertices()), 0);
      for (std::size_t e = 0; e < graph.num_edges(); ++e) {
        if (!region[e]) continue;
        const auto& edge = graph.edge(e);
        if (graph.is_boundary(edge.u))
          touches[static_cast<std::size_t>(edge.v)] = 1;
        else if (graph.is_boundary(edge.v))
          touches[static_cast<std::size_t>(edge.u)] = 1;
        else
          dsu.unite(edge.u, edge.v);
      }
      std::vector<int> parity(
          static_cast<std::size_t>(graph.num_real_vertices()), 0);
      std::vector<int> boundary(
          static_cast<std::size_t>(graph.num_real_vertices()), 0);
      for (int v = 0; v < graph.num_real_vertices(); ++v) {
        const int root = dsu.find(v);
        parity[static_cast<std::size_t>(root)] +=
            syndrome[static_cast<std::size_t>(v)];
        boundary[static_cast<std::size_t>(root)] |=
            touches[static_cast<std::size_t>(v)];
      }
      for (int v = 0; v < graph.num_real_vertices(); ++v) {
        if (dsu.find(v) != v) continue;
        if (parity[static_cast<std::size_t>(v)] % 2 == 1) {
          EXPECT_TRUE(boundary[static_cast<std::size_t>(v)])
              << "odd component without boundary, trial " << trial;
        }
      }
    }
  }
}

TEST(ClusterGrowth, FasterEdgesGrowFirst) {
  // With one syndrome equidistant from two boundaries, asymmetric speeds
  // must steer the region toward the fast side.
  const SurfaceCodeLattice lattice(5);
  const auto& graph = lattice.graph(GraphKind::Z);
  // Syndrome at the central measure-Z vertex.
  std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  const int center = graph.num_real_vertices() / 2;
  syndrome[static_cast<std::size_t>(center)] = 1;

  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 0.01);  // everything slow...
  // ...except edges on the west side of the lattice (columns < center).
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const auto rc = lattice.data_coord(graph.edge(e).data_qubit);
    if (rc.c <= 4) config.speed[e] = 0.6;
  }
  const auto region = grow_clusters(graph, syndrome, config);
  std::size_t west = 0, east = 0;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    if (!region[e]) continue;
    const auto rc = lattice.data_coord(graph.edge(e).data_qubit);
    (rc.c <= 4 ? west : east) += 1;
  }
  EXPECT_GT(west, east);
}

TEST(ClusterGrowth, RoundCapTriggers) {
  const SurfaceCodeLattice lattice(3);
  const auto& graph = lattice.graph(GraphKind::Z);
  std::vector<char> syndrome(
      static_cast<std::size_t>(graph.num_real_vertices()), 0);
  syndrome[0] = 1;
  GrowthConfig config;
  config.speed.assign(graph.num_edges(), 1e-9);
  config.max_rounds = 10;
  EXPECT_THROW(grow_clusters(graph, syndrome, config), std::logic_error);
}

}  // namespace
}  // namespace surfnet::decoder
