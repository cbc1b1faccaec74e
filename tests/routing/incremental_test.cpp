// Incremental router (routing/incremental.h) tests.
//
// The incremental contract: admission is greedy-only, admit() commits
// exactly what release() returns, a saturated pair is rejected until
// capacity comes back, and reoptimize() reports the tracker's residual
// headroom.

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/topology.h"
#include "netsim/workload.h"
#include "routing/greedy.h"
#include "routing/incremental.h"

namespace surfnet::routing {
namespace {

using netsim::Fiber;
using netsim::Node;
using netsim::NodeRole;
using netsim::Topology;

/// Ring: user(0) - sw(1) - server(2) - sw(3) - user(4), plus bypass sw(5)
/// connecting 1 and 3 (the golden_trace_test.cpp shape).
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

struct TrackerSnapshot {
  std::vector<double> nodes;
  std::vector<double> fibers;
};

TrackerSnapshot snapshot(const Topology& topology,
                         const CapacityTracker& tracker) {
  TrackerSnapshot snap;
  for (int v = 0; v < topology.num_nodes(); ++v)
    snap.nodes.push_back(tracker.node_remaining(v));
  for (int e = 0; e < topology.num_fibers(); ++e)
    snap.fibers.push_back(tracker.fiber_pairs_remaining(e));
  return snap;
}

TEST(IncrementalRouter, AdmitReleaseRoundtripRestoresTracker) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);
  const auto before = snapshot(topology, router.tracker());

  std::vector<netsim::AdmittedRoute> held;
  for (const auto& [src, dst, codes] :
       {std::tuple{0, 4, 1}, {4, 0, 2}, {0, 4, 1}}) {
    auto route = router.admit(src, dst, codes);
    ASSERT_TRUE(route.has_value());
    held.push_back(*route);
  }
  // Resources are actually held while the requests are live.
  const auto during = snapshot(topology, router.tracker());
  EXPECT_NE(before.nodes, during.nodes);

  // Release out of admission order: the tracker is a bag, not a stack.
  router.release(held[1]);
  router.release(held[0]);
  router.release(held[2]);
  const auto after = snapshot(topology, router.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, GreedyFastPathLeavesTheLpUntouched) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);
  for (int i = 0; i < 3; ++i) {
    const auto route = router.admit(0, 4, 1);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->source, netsim::AdmitSource::Greedy);
    EXPECT_EQ(route->path.front(), 0);
    EXPECT_EQ(route->path.back(), 4);
  }
  EXPECT_EQ(router.stats().greedy_admits, 3);
  EXPECT_EQ(router.stats().cold_solves, 0);
  EXPECT_EQ(router.stats().warm_solves, 0);
}

/// Drive the ring to saturation on the (0, 4) pair: every fiber of both
/// disjoint routes carries 50 pairs and a code costs core_qubits=7, so
/// after 14 admits nothing fits.
TEST(IncrementalRouter, SaturationIsSkippedUntilCapacityReturns) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);

  std::vector<netsim::AdmittedRoute> held;
  while (true) {
    auto route = router.admit(0, 4, 1);
    if (!route) break;
    held.push_back(*route);
    ASSERT_LT(held.size(), 200u) << "the ring never saturated";
  }
  ASSERT_FALSE(held.empty());
  // A saturated pair stays rejected while nothing is released.
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_EQ(router.stats().greedy_admits,
            static_cast<long long>(held.size()));

  // A release returns capacity and the freed route admits again.
  router.release(held.back());
  held.pop_back();
  const auto again = router.admit(0, 4, 1);
  ASSERT_TRUE(again.has_value());
}

TEST(IncrementalRouter, ReoptimizeReportsTrackerHeadroom) {
  const auto topology = ring_topology();
  RoutingParams params;
  IncrementalRouter router(topology, params);
  // Fresh ring: four transit nodes of 1000 qubits hold 4000 / 25 codes,
  // six fibers of 50 pairs carry 300 / 7; the pairs bind.
  const double pristine = router.reoptimize();
  EXPECT_DOUBLE_EQ(pristine, std::min(4 * 1000.0 / 25, 6 * 50.0 / 7));

  // Every admit commits capacity, so the headroom falls.
  std::vector<netsim::AdmittedRoute> held;
  double last = pristine;
  for (int i = 0; i < 5; ++i) {
    auto route = router.admit(i % 2 == 0 ? 0 : 4, i % 2 == 0 ? 4 : 0, 1);
    ASSERT_TRUE(route.has_value());
    held.push_back(*route);
    const double now = router.reoptimize();
    EXPECT_LT(now, last);
    EXPECT_GE(now, 0.0);
    last = now;
  }

  // Releases give it back; once everything is released it equals the
  // pristine value exactly.
  for (const std::size_t i : {std::size_t{3}, std::size_t{0}, std::size_t{4},
                              std::size_t{1}, std::size_t{2}}) {
    router.release(held[i]);
    const double now = router.reoptimize();
    EXPECT_GT(now, last);
    last = now;
  }
  EXPECT_EQ(router.reoptimize(), pristine);
  for (int i = 0; i < 3; ++i) {
    const auto route = router.admit(4, 0, 2);
    ASSERT_TRUE(route.has_value());
    EXPECT_LT(router.reoptimize(), pristine);
    router.release(*route);
    EXPECT_EQ(router.reoptimize(), pristine);
  }

  // Raw has no entanglement channel: only storage counts, with the Raw
  // capacity bonus.
  params.dual_channel = false;
  IncrementalRouter raw(topology, params);
  EXPECT_DOUBLE_EQ(raw.reoptimize(),
                   4 * kRawCapacityBonus * 1000.0 / 25);
}

// ---------------------------------------------------------------------------
// Adaptive code selection and the noise-profile seam.

TEST(IncrementalRouter, AdaptiveAdmitCommitsDistanceScaledCapacity) {
  const auto topology = ring_topology(0.97);  // clean: residual under 0.10
  RoutingParams params;
  IncrementalRouter fixed(topology, params);
  params.adaptive_code_distance = true;
  IncrementalRouter adaptive(topology, params);
  const auto before = snapshot(topology, adaptive.tracker());

  const auto route = adaptive.admit(0, 4, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->distance, 3);
  const auto fixed_route = fixed.admit(0, 4, 1);
  ASSERT_TRUE(fixed_route.has_value());
  EXPECT_EQ(fixed_route->distance, 0);

  // The compact distance-3 code holds strictly less storage than the
  // configuration-default code the fixed router commits.
  double adaptive_held = 0.0;
  double fixed_held = 0.0;
  for (int v = 0; v < topology.num_nodes(); ++v) {
    adaptive_held += before.nodes[static_cast<std::size_t>(v)] -
                     adaptive.tracker().node_remaining(v);
    fixed_held += before.nodes[static_cast<std::size_t>(v)] -
                  fixed.tracker().node_remaining(v);
  }
  EXPECT_GT(adaptive_held, 0.0);
  EXPECT_LT(adaptive_held, fixed_held);

  // Release keyed by the recorded distance restores the tracker exactly.
  adaptive.release(*route);
  const auto after = snapshot(topology, adaptive.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, NoiseScaleEscalatesDistanceAndReleaseStaysExact) {
  const auto topology = ring_topology(0.97);
  RoutingParams params;
  params.adaptive_code_distance = true;
  IncrementalRouter router(topology, params);
  const auto before = snapshot(topology, router.tracker());

  const auto clean = router.admit(0, 4, 1);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->distance, 3);

  // A degradation window opens: every fiber measures as fidelity^2, the
  // residual noise crosses the distance-4 band, and the route reports the
  // scaled noise.
  router.set_noise_scale(2.0);
  EXPECT_EQ(router.noise_scale(), 2.0);
  EXPECT_EQ(router.stats().profile_changes, 1);
  const auto degraded = router.admit(0, 4, 1);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->distance, 4);
  EXPECT_GT(degraded->noise, clean->noise);

  // The window closes; releases still return exactly what each admit
  // committed, keyed by the distance recorded on the route — not by the
  // profile in force at release time.
  router.set_noise_scale(1.0);
  EXPECT_EQ(router.stats().profile_changes, 2);
  router.release(*degraded);
  router.release(*clean);
  const auto after = snapshot(topology, router.tracker());
  EXPECT_EQ(before.nodes, after.nodes);
  EXPECT_EQ(before.fibers, after.fibers);
}

TEST(IncrementalRouter, NoiseScaleRevalidatesInfeasibleCommodities) {
  const auto topology = ring_topology(0.97);
  RoutingParams params;
  params.adaptive_code_distance = true;
  IncrementalRouter router(topology, params);

  // Under a 2x profile the pair still routes on a distance-4 code; under
  // 4x no candidate path passes the Eq. (6) thresholds at any distance.
  // The scaled view changes its fidelities in place between the two, so
  // the planner must not keep the 2x noise.
  router.set_noise_scale(2.0);
  const auto degraded = router.admit(0, 4, 1);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->distance, 4);
  router.set_noise_scale(4.0);
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());
  EXPECT_FALSE(router.admit(0, 4, 1).has_value());

  // The rejection belongs to that profile: restoring the clean
  // measurement routes the pair again.
  router.set_noise_scale(1.0);
  const auto route = router.admit(0, 4, 1);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->distance, 3);
}

}  // namespace
}  // namespace surfnet::routing
