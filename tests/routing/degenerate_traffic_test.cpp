// Degenerate networks — no servers, zero storage, zero entangled pairs,
// or split into two components — on both routing paths, Raw and dual
// channel, each with adaptive distance on and off.
//
// Online path: traffic streams through the IncrementalRouter. Whatever
// the stream does, the books must balance: nothing throws, no NaN reaches
// a route or a result, every arrival is admitted or blocked, every
// admitted request departs, the drained tracker equals a fresh one, and
// the headroom reoptimize() reports is finite, never negative, and back
// at its pristine value after the drain.
//
// Batch path: routing::route() and routing::route_greedy() return without
// throwing, route() with a finite relaxed optimum, and each with a
// schedule that satisfies the program's invariants (Eqs. (1)-(6)) under
// the throwing contract handler.

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/topology.h"
#include "netsim/workload.h"
#include "../proptest.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/router.h"
#include "routing/validate.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::Fiber;
using netsim::Node;
using netsim::NodeRole;
using netsim::Topology;

/// Forwards to the router and checks every route and headroom it reports.
class CheckedProvider final : public netsim::RouteProvider {
 public:
  explicit CheckedProvider(IncrementalRouter& inner) : inner_(&inner) {}

  std::optional<netsim::AdmittedRoute> admit(int src, int dst,
                                             int codes) override {
    auto route = inner_->admit(src, dst, codes);
    if (route) {
      EXPECT_TRUE(std::isfinite(route->noise));
      EXPECT_GE(route->noise, 0.0);
      EXPECT_EQ(route->path.front(), src);
      EXPECT_EQ(route->path.back(), dst);
    }
    return route;
  }
  void release(const netsim::AdmittedRoute& route) override {
    inner_->release(route);
  }
  double reoptimize() override {
    const double headroom = inner_->reoptimize();
    EXPECT_TRUE(std::isfinite(headroom));
    EXPECT_GE(headroom, 0.0);
    return headroom;
  }
  void set_noise_scale(double scale) override {
    inner_->set_noise_scale(scale);
  }

 private:
  IncrementalRouter* inner_;
};

enum class Degenerate { NoServers, ZeroStorage, ZeroPairs, TwoComponents };

constexpr Degenerate kDegenerate[] = {
    Degenerate::NoServers, Degenerate::ZeroStorage, Degenerate::ZeroPairs,
    Degenerate::TwoComponents};

const char* name_of(Degenerate kind) {
  switch (kind) {
    case Degenerate::NoServers: return "no servers";
    case Degenerate::ZeroStorage: return "zero storage";
    case Degenerate::ZeroPairs: return "zero pairs";
    case Degenerate::TwoComponents: return "two components";
  }
  return "?";
}

/// Users 0-2 with switch 3 and server 4 in one component, users 5-7 with
/// server 8 and switch 9 in the other.
Topology two_components(util::Rng& rng) {
  std::vector<Node> nodes(10);
  nodes[3] = {NodeRole::Switch, proptest::int_in(rng, 0, 200)};
  nodes[4] = {NodeRole::Server, proptest::int_in(rng, 0, 200)};
  nodes[8] = {NodeRole::Server, proptest::int_in(rng, 0, 200)};
  nodes[9] = {NodeRole::Switch, proptest::int_in(rng, 0, 200)};
  const std::vector<std::pair<int, int>> links{
      {0, 3}, {1, 3}, {3, 4}, {4, 2}, {0, 4}, {5, 8}, {8, 9}, {9, 6}, {9, 7}};
  std::vector<Fiber> fibers;
  for (const auto& [a, b] : links)
    fibers.push_back({a, b, proptest::real_in(rng, 0.8, 1.0),
                      proptest::int_in(rng, 0, 60)});
  return Topology(std::move(nodes), std::move(fibers));
}

Topology degenerate_topology(Degenerate kind, util::Rng& rng) {
  if (kind == Degenerate::TwoComponents) return two_components(rng);
  netsim::TopologySpec spec;
  spec.num_nodes = proptest::int_in(rng, 8, 20);
  spec.num_servers = kind == Degenerate::NoServers
                         ? 0
                         : proptest::int_in(rng, 1, 3);
  spec.num_switches = proptest::int_in(rng, 0, 2);
  spec.storage_capacity =
      kind == Degenerate::ZeroStorage ? 0 : proptest::int_in(rng, 25, 200);
  spec.entanglement_capacity =
      kind == Degenerate::ZeroPairs ? 0 : proptest::int_in(rng, 7, 60);
  spec.fidelity_lo = proptest::real_in(rng, 0.8, 0.97);
  return netsim::make_random_topology(spec, rng);
}

TEST(DegenerateTraffic, StreamsBalanceOnDegenerateNetworks) {
  proptest::check("degenerate_traffic", {12}, [](util::Rng& rng) {
    netsim::WorkloadParams workload;
    workload.arrival_rate = proptest::real_in(rng, 0.3, 3.0);
    workload.horizon_slots = proptest::int_in(rng, 50, 200);
    workload.warmup_slots = proptest::int_in(rng, 0, 20);
    workload.reoptimize_every = proptest::int_in(rng, 1, 8);
    workload.classes = {{1.0, 1, 0.0, 0},
                        {0.5, proptest::int_in(rng, 1, 3), 0.5, 60}};
    if (proptest::chance(rng, 0.5)) {
      workload.degrade_from_slot = workload.horizon_slots / 4;
      workload.degrade_until_slot = workload.horizon_slots / 2;
      workload.degrade_noise_scale = proptest::real_in(rng, 1.5, 4.0);
    }
    const std::uint64_t stream_seed = rng();

    for (const Degenerate kind : kDegenerate) {
      const Topology topology = degenerate_topology(kind, rng);
      for (const bool dual : {false, true})
        for (const bool adaptive : {false, true}) {
          SCOPED_TRACE(std::string(name_of(kind)) +
                       (dual ? ", dual channel" : ", raw") +
                       (adaptive ? ", adaptive" : ", fixed distance"));
          RoutingParams params;
          params.dual_channel = dual;
          params.adaptive_code_distance = adaptive;
          IncrementalRouter router(topology, params);
          const double pristine = router.reoptimize();
          CheckedProvider provider(router);

          util::Rng stream(stream_seed);
          netsim::TrafficResult result;
          ASSERT_NO_THROW(result = netsim::run_traffic(topology, provider,
                                                       workload, stream));
          EXPECT_GT(result.arrivals, 0);
          EXPECT_EQ(result.arrivals, result.admitted + result.blocked);
          EXPECT_EQ(result.departures, result.admitted);
          EXPECT_TRUE(std::isfinite(result.blocking_probability()));
          EXPECT_TRUE(std::isfinite(result.mean_latency()));
          EXPECT_TRUE(std::isfinite(result.latency_percentile(0.99)));

          const CapacityTracker fresh(topology, params);
          for (int v = 0; v < topology.num_nodes(); ++v)
            EXPECT_EQ(router.tracker().node_remaining(v),
                      fresh.node_remaining(v))
                << "node " << v;
          for (int e = 0; e < topology.num_fibers(); ++e)
            EXPECT_EQ(router.tracker().fiber_pairs_remaining(e),
                      fresh.fiber_pairs_remaining(e))
                << "fiber " << e;
          EXPECT_TRUE(std::isfinite(pristine));
          EXPECT_GE(pristine, 0.0);
          EXPECT_EQ(router.reoptimize(), pristine);
          if (::testing::Test::HasFailure()) return;
        }
    }
  });
}

TEST(DegenerateTraffic, RouteIsSoundOnDegenerateNetworks) {
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  proptest::check("degenerate_route", {60}, [](util::Rng& rng) {
    for (const Degenerate kind : kDegenerate) {
      const Topology topology = degenerate_topology(kind, rng);
      const auto requests = netsim::random_requests(
          topology, proptest::int_in(rng, 0, 8), proptest::int_in(rng, 1, 3),
          rng);
      const std::uint64_t route_seed = rng();
      for (const bool lp : {true, false})
        for (const bool dual : {false, true})
          for (const bool adaptive : {false, true}) {
            SCOPED_TRACE(std::string(name_of(kind)) +
                         (lp ? ", route" : ", route_greedy") +
                         (dual ? ", dual channel" : ", raw") +
                         (adaptive ? ", adaptive" : ", fixed distance") +
                         ", " + std::to_string(requests.size()) +
                         " requests");
            RoutingParams params;
            params.dual_channel = dual;
            params.adaptive_code_distance = adaptive;
            util::Rng route_rng(route_seed);
            netsim::Schedule schedule;
            if (lp) {
              RouteResult result;
              ASSERT_NO_THROW(
                  result = route(topology, requests, params, route_rng));
              EXPECT_TRUE(std::isfinite(result.lp_objective));
              schedule = std::move(result.schedule);
            } else {
              ASSERT_NO_THROW(schedule = route_greedy(topology, requests,
                                                      params, route_rng));
            }
            EXPECT_NO_THROW(check_schedule_invariants(topology, requests,
                                                      params, schedule));
            if (::testing::Test::HasFailure()) return;
          }
    }
  });
}

}  // namespace
}  // namespace surfnet::routing
