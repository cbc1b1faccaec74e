#include "netsim/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace surfnet::netsim {
namespace {

TopologySpec default_spec() {
  TopologySpec spec;
  spec.num_nodes = 24;
  spec.attach_edges = 2;
  spec.num_servers = 3;
  spec.num_switches = 8;
  spec.storage_capacity = 50;
  spec.entanglement_capacity = 10;
  return spec;
}

TEST(Topology, HandBuiltGraphBasics) {
  std::vector<Node> nodes(3);
  nodes[1].role = NodeRole::Switch;
  nodes[1].storage_capacity = 5;
  std::vector<Fiber> fibers{{0, 1, 0.9, 4}, {1, 2, 0.8, 4}};
  const Topology topo(std::move(nodes), std::move(fibers));
  EXPECT_EQ(topo.num_nodes(), 3);
  EXPECT_EQ(topo.num_fibers(), 2);
  EXPECT_TRUE(topo.is_user(0));
  EXPECT_TRUE(topo.is_switch_or_server(1));
  EXPECT_FALSE(topo.is_server(1));
  EXPECT_EQ(topo.other_end(0, 0), 1);
  EXPECT_EQ(topo.other_end(0, 1), 0);
  EXPECT_EQ(topo.fiber_between(0, 1), 0);
  EXPECT_EQ(topo.fiber_between(0, 2), -1);
  EXPECT_TRUE(topo.connected());
  EXPECT_NEAR(topo.fiber_noise(0), std::log(1.0 / 0.9), 1e-12);
}

TEST(Topology, RejectsBadFibers) {
  std::vector<Node> nodes(2);
  EXPECT_THROW(Topology(nodes, {{0, 0, 0.9, 1}}), std::invalid_argument);
  EXPECT_THROW(Topology(nodes, {{0, 5, 0.9, 1}}), std::invalid_argument);
  EXPECT_THROW(Topology(nodes, {{0, 1, 1.5, 1}}), std::invalid_argument);
}

TEST(Topology, RejectsNanFiberFidelity) {
  // NaN passed the [0, 1] check, and every route over the fiber was NaN.
  std::vector<Node> nodes(2);
  EXPECT_THROW(Topology(nodes, {{0, 1, std::nan(""), 1}}),
               std::invalid_argument);
}

TEST(Topology, RejectsNegativeCapacities) {
  std::vector<Node> nodes(2);
  nodes[1].role = NodeRole::Switch;
  nodes[1].storage_capacity = -1;
  EXPECT_THROW(Topology(nodes, {{0, 1, 0.9, 1}}), std::invalid_argument);
  nodes[1].storage_capacity = 0;
  EXPECT_THROW(Topology(nodes, {{0, 1, 0.9, -1}}), std::invalid_argument);
  EXPECT_NO_THROW(Topology(nodes, {{0, 1, 0.9, 0}}));
}

TEST(Topology, DisconnectedGraphDetected) {
  std::vector<Node> nodes(4);
  const Topology topo(std::move(nodes), {{0, 1, 0.9, 1}, {2, 3, 0.9, 1}});
  EXPECT_FALSE(topo.connected());
}

TEST(RandomTopology, GeneratesConnectedGraphWithRequestedCounts) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto spec = default_spec();
    const auto topo = make_random_topology(spec, rng);
    EXPECT_EQ(topo.num_nodes(), spec.num_nodes);
    EXPECT_TRUE(topo.connected());
    EXPECT_EQ(static_cast<int>(topo.servers().size()), spec.num_servers);
    EXPECT_EQ(static_cast<int>(topo.switches_and_servers().size()),
              spec.num_servers + spec.num_switches);
    EXPECT_EQ(static_cast<int>(topo.users().size()),
              spec.num_nodes - spec.num_servers - spec.num_switches);
  }
}

TEST(RandomTopology, FiberFidelitiesInRange) {
  util::Rng rng(6);
  auto spec = default_spec();
  spec.fidelity_lo = 0.5;
  const auto topo = make_random_topology(spec, rng);
  for (int e = 0; e < topo.num_fibers(); ++e) {
    EXPECT_GE(topo.fiber(e).fidelity, 0.5);
    EXPECT_LE(topo.fiber(e).fidelity, 1.0);
    EXPECT_EQ(topo.fiber(e).entanglement_capacity,
              spec.entanglement_capacity);
  }
}

TEST(RandomTopology, ServersAreHighestDegreeNodes) {
  util::Rng rng(7);
  const auto topo = make_random_topology(default_spec(), rng);
  auto degree = [&](int v) { return topo.incident(v).size(); };
  std::size_t min_server_degree = SIZE_MAX;
  for (int v : topo.servers())
    min_server_degree = std::min(min_server_degree, degree(v));
  std::size_t max_user_degree = 0;
  for (int v : topo.users())
    max_user_degree = std::max(max_user_degree, degree(v));
  EXPECT_GE(min_server_degree, max_user_degree);
}

TEST(RandomTopology, PreferentialAttachmentSkewsDegrees) {
  // BA graphs have hubs: the maximum degree should clearly exceed the
  // attachment parameter m.
  util::Rng rng(8);
  auto spec = default_spec();
  spec.num_nodes = 60;
  const auto topo = make_random_topology(spec, rng);
  std::size_t max_degree = 0;
  for (int v = 0; v < topo.num_nodes(); ++v)
    max_degree = std::max(max_degree, topo.incident(v).size());
  EXPECT_GE(max_degree, 8u);
}

TEST(RandomTopology, UsersHoldNoStorage) {
  util::Rng rng(9);
  const auto topo = make_random_topology(default_spec(), rng);
  for (int v : topo.users()) EXPECT_EQ(topo.node(v).storage_capacity, 0);
  for (int v : topo.switches_and_servers())
    EXPECT_EQ(topo.node(v).storage_capacity, 50);
}

TEST(RandomTopology, RejectsImpossibleSpecs) {
  util::Rng rng(10);
  TopologySpec spec;
  spec.num_nodes = 2;
  EXPECT_THROW(make_random_topology(spec, rng), std::invalid_argument);
  spec = TopologySpec{};
  spec.num_nodes = 10;
  spec.num_servers = 5;
  spec.num_switches = 5;
  EXPECT_THROW(make_random_topology(spec, rng), std::invalid_argument);
}

Topology make(const TopologySpec& spec, util::Rng& rng) {
  return make_random_topology(spec, rng);
}
Topology make(const GridSpec& spec, util::Rng& rng) {
  return make_grid_topology(spec, rng);
}

/// The spec's builder rejects `spec` with an error naming `field`.
template <typename Spec>
void expect_spec_rejected(const Spec& spec, const std::string& field) {
  util::Rng rng(11);
  try {
    make(spec, rng);
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
        << err.what();
  }
}

TEST(RandomTopology, RejectsFidelityLoOutsideUnitInterval) {
  // NaN drew NaN fidelities, which the fiber check let through, and the
  // run scheduled nothing.
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    TopologySpec spec = default_spec();
    spec.fidelity_lo = bad;
    expect_spec_rejected(spec, "fidelity_lo");
  }
}

TEST(RandomTopology, RejectsFidelityHiOutsideUnitInterval) {
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    TopologySpec spec = default_spec();
    spec.fidelity_hi = bad;
    expect_spec_rejected(spec, "fidelity_hi");
  }
}

TEST(RandomTopology, RejectsFidelityLoAboveFidelityHi) {
  TopologySpec spec = default_spec();
  spec.fidelity_lo = 0.9;
  spec.fidelity_hi = 0.8;
  expect_spec_rejected(spec, "fidelity_lo must be <= fidelity_hi");
}

TEST(RandomTopology, RejectsNegativeStorageCapacity) {
  TopologySpec spec = default_spec();
  spec.storage_capacity = -1;
  expect_spec_rejected(spec, "storage_capacity");
}

TEST(RandomTopology, RejectsNegativeEntanglementCapacity) {
  TopologySpec spec = default_spec();
  spec.entanglement_capacity = -5;
  expect_spec_rejected(spec, "entanglement_capacity");
}

TEST(RandomTopology, AcceptsZeroCapacitiesAndEqualFidelityBounds) {
  TopologySpec spec = default_spec();
  spec.storage_capacity = 0;
  spec.entanglement_capacity = 0;
  spec.fidelity_lo = 1.0;
  spec.fidelity_hi = 1.0;
  util::Rng rng(12);
  EXPECT_NO_THROW(make_random_topology(spec, rng));
}

TEST(RandomTopology, DeterministicForSameSeed) {
  util::Rng rng1(42), rng2(42);
  const auto a = make_random_topology(default_spec(), rng1);
  const auto b = make_random_topology(default_spec(), rng2);
  ASSERT_EQ(a.num_fibers(), b.num_fibers());
  for (int e = 0; e < a.num_fibers(); ++e) {
    EXPECT_EQ(a.fiber(e).a, b.fiber(e).a);
    EXPECT_EQ(a.fiber(e).b, b.fiber(e).b);
    EXPECT_DOUBLE_EQ(a.fiber(e).fidelity, b.fiber(e).fidelity);
  }
}

TEST(GridTopology, ShapeRolesAndConnectivity) {
  GridSpec spec;
  spec.width = 5;
  spec.height = 4;
  spec.server_stride = 3;
  util::Rng rng(7);
  const auto topo = make_grid_topology(spec, rng);
  ASSERT_EQ(topo.num_nodes(), 20);
  // 4-neighbor grid: w*(h-1) vertical + (w-1)*h horizontal fibers.
  EXPECT_EQ(topo.num_fibers(), 5 * 3 + 4 * 4);
  EXPECT_TRUE(topo.connected());

  int users = 0, servers = 0, switches = 0;
  for (int v = 0; v < topo.num_nodes(); ++v) {
    const int r = v / spec.width, c = v % spec.width;
    const bool boundary =
        r == 0 || c == 0 || r == spec.height - 1 || c == spec.width - 1;
    EXPECT_EQ(topo.is_user(v), boundary) << "node " << v;
    if (topo.is_user(v)) {
      ++users;
      EXPECT_EQ(topo.node(v).storage_capacity, 0);
    } else {
      topo.is_server(v) ? ++servers : ++switches;
      EXPECT_EQ(topo.node(v).storage_capacity, spec.storage_capacity);
    }
  }
  EXPECT_EQ(users, 14);              // boundary of a 5x4 grid
  EXPECT_EQ(servers + switches, 6);  // 3x2 interior
  EXPECT_EQ(servers, 2);             // every 3rd interior node
}

TEST(GridTopology, RejectsDegenerateGrids) {
  util::Rng rng(1);
  GridSpec spec;
  spec.width = 2;
  EXPECT_THROW(make_grid_topology(spec, rng), std::invalid_argument);
  spec.width = 4;
  spec.server_stride = 0;
  EXPECT_THROW(make_grid_topology(spec, rng), std::invalid_argument);
}

TEST(GridTopology, RejectsFidelityOutsideUnitInterval) {
  // A NaN fidelity_lo built NaN fibers, and route() on them scheduled 0
  // codes without an error.
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    GridSpec spec;
    spec.fidelity_lo = bad;
    expect_spec_rejected(spec, "GridSpec: fidelity_lo");
    spec = GridSpec{};
    spec.fidelity_hi = bad;
    expect_spec_rejected(spec, "GridSpec: fidelity_hi");
  }
  GridSpec crossed;
  crossed.fidelity_lo = 0.95;
  crossed.fidelity_hi = 0.9;
  expect_spec_rejected(crossed, "fidelity_lo must be <= fidelity_hi");
}

TEST(GridTopology, RejectsNegativeCapacities) {
  // A negative entanglement_capacity scheduled 0 codes without an error.
  GridSpec spec;
  spec.storage_capacity = -1;
  expect_spec_rejected(spec, "GridSpec: storage_capacity");
  spec = GridSpec{};
  spec.entanglement_capacity = -5;
  expect_spec_rejected(spec, "GridSpec: entanglement_capacity");
  spec = GridSpec{};
  spec.storage_capacity = 0;
  spec.entanglement_capacity = 0;
  util::Rng rng(12);
  EXPECT_NO_THROW(make_grid_topology(spec, rng));
}

}  // namespace
}  // namespace surfnet::netsim
