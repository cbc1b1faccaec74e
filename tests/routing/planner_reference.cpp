// Reference planner: the greedy planner as it was before minimum-noise
// trees, kept as the oracle for tests/routing/planner_oracle_test.cpp.
// Every route is its own point-to-point Dijkstra: the direct one, then
// one per detour leg through one server or an ordered pair of servers.

#include "planner_reference.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "netsim/channel.h"

namespace surfnet::routing::reference {

using netsim::Topology;

/// Dijkstra over nodes with remaining capacity, minimizing accumulated
/// noise. Only the request's endpoints may be users.
std::optional<std::vector<int>> min_noise_path(const Topology& topology,
                                               const CapacityTracker& tracker,
                                               const RoutingParams& params,
                                               int src, int dst) {
  const double node_demand = params.total_qubits();
  const double pair_demand = params.core_qubits;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(topology.num_nodes()),
                           inf);
  std::vector<int> parent(static_cast<std::size_t>(topology.num_nodes()), -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    if (u == dst) break;
    for (int e : topology.incident(u)) {
      const int v = topology.other_end(e, u);
      // Only the destination user is enterable; transit nodes need storage.
      if (v != dst) {
        if (!topology.is_switch_or_server(v)) continue;
        if (tracker.node_remaining(v) < node_demand) continue;
      }
      if (params.dual_channel &&
          tracker.fiber_pairs_remaining(e) < pair_demand)
        continue;
      const double nd = d + topology.fiber_noise(e);
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        parent[static_cast<std::size_t>(v)] = u;
        heap.push({nd, v});
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == inf) return std::nullopt;
  std::vector<int> path;
  for (int v = dst; v != -1; v = parent[static_cast<std::size_t>(v)])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<PlannedCode> plan_code(const Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst) {
  const auto direct = min_noise_path(topology, tracker, params, src, dst);
  if (direct) {
    if (auto plan = check_path(topology, params, *direct)) return plan;
  }
  // The minimum-noise route may fail the thresholds simply because it
  // passes too few servers: detour through one server — or an ordered pair
  // of servers — (the hierarchical equivalent of the LP routing its flow
  // through EC sites) and keep the lowest-noise feasible composite.
  auto is_simple = [](const std::vector<int>& path) {
    for (std::size_t i = 0; i < path.size(); ++i)
      for (std::size_t j = i + 1; j < path.size(); ++j)
        if (path[i] == path[j]) return false;
    return true;
  };
  auto join = [&](const std::vector<int>& a,
                  const std::vector<int>& b) {
    std::vector<int> composite = a;
    composite.insert(composite.end(), b.begin() + 1, b.end());
    return composite;
  };

  std::optional<PlannedCode> best;
  double best_mu = std::numeric_limits<double>::infinity();
  auto consider = [&](const std::vector<int>& composite) {
    if (!is_simple(composite)) return;
    const double mu = netsim::path_noise(topology, composite);
    if (mu >= best_mu) return;
    if (auto plan = check_path(topology, params, composite)) {
      best = std::move(plan);
      best_mu = mu;
    }
  };

  const auto servers = topology.servers();
  for (const int server : servers) {
    if (server == src || server == dst) continue;
    const auto first = min_noise_path(topology, tracker, params, src, server);
    if (!first) continue;
    const auto second =
        min_noise_path(topology, tracker, params, server, dst);
    if (second) consider(join(*first, *second));
    for (const int other : servers) {
      if (other == server || other == src || other == dst) continue;
      const auto middle =
          min_noise_path(topology, tracker, params, server, other);
      if (!middle) continue;
      const auto last =
          min_noise_path(topology, tracker, params, other, dst);
      if (last) consider(join(join(*first, *middle), *last));
    }
  }
  return best;
}

}  // namespace surfnet::routing::reference
