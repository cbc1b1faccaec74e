// Planner oracle: plan_code over memoized minimum-noise trees must pick
// exactly the plan of the point-to-point reference planner
// (planner_reference.h) — same path, same EC servers, same distance, same
// nullopt — on any topology, any capacity state and any noise profile.
//
// One tracker walks through random commits and releases (one-path and
// split forms) while one long-lived PlanWorkspace serves every plan, so a
// workspace that kept trees across a capacity change would plan over
// stale capacities. Noise scales 1 -> 2 -> 3 -> 1 go through one scaled
// copy whose fidelities change in place, with the workspace cleared on
// each change as the incremental router does.
//
// Scale with SURFNET_PROP_ITERS; replay a case with SURFNET_PROP_SEED.

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/topology.h"
#include "planner_reference.h"
#include "../proptest.h"
#include "routing/greedy.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::Fiber;
using netsim::Node;
using netsim::NodeRole;
using netsim::Topology;

/// Two components plus an isolated user: users 0, 1 reach switch 2 and
/// server 3; users 4, 5 reach server 6 and switch 7 (with a parallel
/// detour through server 8); user 9 has no fiber at all.
Topology disconnected_topology(util::Rng& rng) {
  std::vector<Node> nodes(10);
  for (const int v : {2, 7}) nodes[static_cast<std::size_t>(v)].role =
      NodeRole::Switch;
  for (const int v : {3, 6, 8}) nodes[static_cast<std::size_t>(v)].role =
      NodeRole::Server;
  for (const int v : {2, 3, 6, 7, 8})
    nodes[static_cast<std::size_t>(v)].storage_capacity =
        proptest::int_in(rng, 0, 120);
  const std::vector<std::pair<int, int>> links{
      {0, 2}, {2, 3}, {3, 1}, {0, 3}, {4, 6}, {6, 7}, {7, 5}, {6, 8}, {8, 7}};
  std::vector<Fiber> fibers;
  for (const auto& [a, b] : links)
    fibers.push_back({a, b, proptest::real_in(rng, 0.7, 1.0),
                      proptest::int_in(rng, 0, 40)});
  return Topology(std::move(nodes), std::move(fibers));
}

/// Barabasi-Albert network with 0-5 servers, then per-node storage and
/// per-fiber pairs redrawn from 0 upward.
Topology random_topology(util::Rng& rng) {
  netsim::TopologySpec spec;
  spec.num_nodes = proptest::int_in(rng, 8, 26);
  spec.attach_edges = proptest::int_in(rng, 1, 3);
  spec.num_servers = proptest::int_in(rng, 0, 5);
  spec.num_switches = proptest::int_in(rng, 0, spec.num_nodes / 3);
  spec.fidelity_lo = proptest::real_in(rng, 0.6, 0.95);
  Topology topology = netsim::make_random_topology(spec, rng);
  for (int v = 0; v < topology.num_nodes(); ++v)
    if (topology.is_switch_or_server(v))
      topology.node(v).storage_capacity = proptest::int_in(rng, 0, 150);
  for (int e = 0; e < topology.num_fibers(); ++e)
    topology.fiber(e).entanglement_capacity = proptest::int_in(rng, 0, 40);
  return topology;
}

void expect_same_plan(const std::optional<PlannedCode>& got,
                      const std::optional<PlannedCode>& want, int src,
                      int dst) {
  SCOPED_TRACE("pair (" + std::to_string(src) + ", " + std::to_string(dst) +
               ")");
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->path, want->path);
  EXPECT_EQ(got->ec_servers, want->ec_servers);
  EXPECT_EQ(got->distance, want->distance);
}

/// Codes held on the tracker, to be released later.
struct Held {
  std::vector<int> path;
  CodeDemand demand;
  int codes = 1;
};

TEST(PlannerOracle, TreesPlanExactlyLikePointToPointSearches) {
  proptest::check("planner_oracle", {}, [](util::Rng& rng) {
    const Topology topology = proptest::chance(rng, 0.15)
                                  ? disconnected_topology(rng)
                                  : random_topology(rng);
    RoutingParams params;
    params.dual_channel = proptest::chance(rng, 0.5);
    params.adaptive_code_distance = proptest::chance(rng, 0.5);

    const std::vector<int> users = topology.users();
    const auto random_pair = [&]() {
      // Mostly user pairs, as the traffic engine draws them; sometimes
      // any two nodes, so trees rooted at servers serve as sources too.
      const bool any = users.size() < 2 || proptest::chance(rng, 0.2);
      const int n = topology.num_nodes();
      const int src = any ? proptest::int_in(rng, 0, n - 1)
                          : proptest::pick(rng, users);
      int dst = src;
      while (dst == src)
        dst = any ? proptest::int_in(rng, 0, n - 1)
                  : proptest::pick(rng, users);
      return std::pair{src, dst};
    };

    CapacityTracker tracker(topology, params);
    PlanWorkspace ws;
    Topology scaled = topology;
    const double scales[] = {1.0, 2.0, 3.0, 1.0};
    int scale_index = 0;
    std::vector<Held> held;

    const int steps = 16;
    for (int step = 0; step < steps; ++step) {
      // Noise profile: 1 -> 2 -> 3 -> 1, changed in place on one copy.
      if (step > 0 && step % (steps / 4) == 0) {
        ++scale_index;
        const double scale = scales[scale_index];
        if (scale != 1.0)
          for (int e = 0; e < scaled.num_fibers(); ++e)
            scaled.fiber(e).fidelity =
                std::pow(topology.fiber(e).fidelity, scale);
        ws.clear();
      }
      const Topology& view = scales[scale_index] == 1.0 ? topology : scaled;

      // Compare a few plans against the unchanged tracker: the first
      // grows the trees, the rest reuse them.
      std::optional<PlannedCode> last;
      for (int probe = 0; probe < 3; ++probe) {
        const auto [src, dst] = random_pair();
        const auto got = plan_code(view, tracker, params, src, dst, ws);
        expect_same_plan(got,
                         reference::plan_code(view, tracker, params, src, dst),
                         src, dst);
        if (::testing::Test::HasFailure()) return;
        if (got) last = got;
      }

      // Then change the capacities: commit the last plan, or release a
      // held code.
      if (!held.empty() && (!last || proptest::chance(rng, 0.35))) {
        const std::size_t i = rng.below(held.size());
        const Held h = held[i];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        // A code committed in the split form (Core and Support passed as
        // two equal vectors) holds what the one-path form takes, so the
        // one-path release returns it.
        tracker.release(h.path, h.path, h.demand, h.codes);
      } else if (last) {
        if (params.dual_channel && proptest::chance(rng, 0.25)) {
          const std::vector<int> core = last->path;
          const CodeDemand demand = params.demand();
          if (tracker.feasible(core, last->path, demand)) {
            tracker.commit(core, last->path, demand);
            held.push_back({last->path, demand, 1});
          }
        } else {
          const int codes = proptest::int_in(rng, 1, 2);
          const CodeDemand demand = params.demand(last->distance);
          if (tracker.feasible(last->path, last->path, demand, codes)) {
            tracker.commit(last->path, last->path, demand, codes);
            held.push_back({last->path, demand, codes});
          }
        }
      }
    }
  });
}

TEST(PlannerOracle, TrackerVersionCountsEveryCapacityChange) {
  std::vector<Node> nodes(3);
  nodes[1] = {NodeRole::Server, 100};
  const Topology topology(std::move(nodes),
                          {{0, 1, 0.95, 20}, {1, 2, 0.95, 20}});
  RoutingParams params;
  CapacityTracker tracker(topology, params);
  const std::vector<int> path{0, 1, 2};
  const CodeDemand demand = params.demand();
  EXPECT_EQ(tracker.version(), 0u);
  tracker.commit(path, path, demand);
  tracker.release(path, path, demand);
  tracker.commit(path, path, demand, 3);
  tracker.release(path, path, demand, 3);
  EXPECT_EQ(tracker.version(), 4u);
  // Queries leave it alone.
  (void)tracker.feasible(path, path, demand);
  (void)tracker.feasible(path, path, demand, 3);
  PlanWorkspace ws;
  (void)plan_code(topology, tracker, params, 0, 2, ws);
  EXPECT_EQ(tracker.version(), 4u);
}

}  // namespace
}  // namespace surfnet::routing
