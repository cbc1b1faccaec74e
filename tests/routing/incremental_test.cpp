// Incremental router (routing/incremental.h) and unified route() facade
// (routing/router.h) tests.
//
// The incremental contract: admission is greedy-only, admit() commits
// exactly what release() returns, a saturated pair is rejected until
// capacity comes back, and reoptimize() reports the tracker's residual
// headroom.
//
// The facade contract: RouteStrategy::Auto reproduces the historical
// route_lp-with-greedy-fallback seam bitwise, and the forced arms match the
// underlying routers.

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "netsim/workload.h"
#include "obs/metrics.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/lp_router.h"
#include "routing/router.h"
#include "util/rng.h"

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
                   4 * params.raw_capacity_bonus * 1000.0 / 25);
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

// ---------------------------------------------------------------------------
// route() facade.

void expect_schedules_equal(const netsim::Schedule& a,
                            const netsim::Schedule& b) {
  EXPECT_EQ(a.requested_codes, b.requested_codes);
  EXPECT_EQ(a.lp_objective, b.lp_objective);
  ASSERT_EQ(a.scheduled.size(), b.scheduled.size());
  for (std::size_t i = 0; i < a.scheduled.size(); ++i) {
    const auto& x = a.scheduled[i];
    const auto& y = b.scheduled[i];
    EXPECT_EQ(x.request_index, y.request_index);
    EXPECT_EQ(x.codes, y.codes);
    EXPECT_EQ(x.core_path, y.core_path);
    EXPECT_EQ(x.support_path, y.support_path);
    EXPECT_EQ(x.ec_servers, y.ec_servers);
    EXPECT_EQ(x.code_distance, y.code_distance);
  }
}

struct Instance {
  Topology topology;
  std::vector<netsim::Request> requests;
};

Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  netsim::TopologySpec spec;  // paper-sized Barabasi-Albert defaults
  Instance instance{netsim::make_random_topology(spec, rng),
                    {}};
  instance.requests =
      netsim::random_requests(instance.topology, 6, 3, rng);
  return instance;
}

TEST(RouteFacade, AutoReproducesTheLpWithGreedyFallbackSeam) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 99ULL}) {
    const auto instance = random_instance(seed);
    RoutingParams params;

    util::Rng rng_facade(seed * 31 + 1);
    util::Rng rng_manual(seed * 31 + 1);
    const auto facade =
        route(instance.topology, instance.requests, params, rng_facade);

    // The historical core-layer seam, spelled out by hand.
    auto manual =
        route_lp(instance.topology, instance.requests, params, rng_manual);
    netsim::Schedule expected = manual.status == LpStatus::Optimal
                                    ? std::move(manual.schedule)
                                    : route_greedy(instance.topology,
                                                   instance.requests, params,
                                                   rng_manual);

    EXPECT_EQ(facade.status, manual.status);
    EXPECT_EQ(facade.used_lp, manual.status == LpStatus::Optimal);
    EXPECT_EQ(facade.greedy_fallback, manual.status != LpStatus::Optimal);
    expect_schedules_equal(facade.schedule, expected);
    // Both consumed the identical RNG stream.
    EXPECT_EQ(rng_facade(), rng_manual());
  }
}

TEST(RouteFacade, GreedyStrategyMatchesRouteGreedy) {
  const auto instance = random_instance(5);
  RoutingParams params;
  util::Rng rng_facade(17);
  util::Rng rng_manual(17);
  const auto facade =
      route(instance.topology, instance.requests, params, rng_facade,
            RouteOptions{RouteStrategy::Greedy});
  const auto manual =
      route_greedy(instance.topology, instance.requests, params, rng_manual);
  EXPECT_FALSE(facade.used_lp);
  expect_schedules_equal(facade.schedule, manual);
  EXPECT_EQ(rng_facade(), rng_manual());
}

TEST(RouteFacade, LpStrategyMatchesRouteLp) {
  const auto instance = random_instance(9);
  RoutingParams params;
  util::Rng rng_facade(23);
  util::Rng rng_manual(23);
  const auto facade =
      route(instance.topology, instance.requests, params, rng_facade,
            RouteOptions{RouteStrategy::Lp});
  const auto manual =
      route_lp(instance.topology, instance.requests, params, rng_manual);
  EXPECT_EQ(facade.status, manual.status);
  EXPECT_EQ(facade.lp_objective, manual.lp_objective);
  expect_schedules_equal(facade.schedule, manual.schedule);
}

}  // namespace
}  // namespace surfnet::routing
