#include "netsim/recovery.h"

#include <algorithm>
#include <cstddef>
#include <queue>

#include "util/contracts.h"

namespace surfnet::netsim {

RecoveryPolicy RecoveryPolicy::disabled() {
  RecoveryPolicy policy;
  policy.local_reroute = false;
  return policy;
}

RecoveryPolicy RecoveryPolicy::aggressive() {
  RecoveryPolicy policy;
  policy.local_reroute = true;
  policy.code_timeout_slots = 1500;
  return policy;
}

int find_on_path(const std::vector<int>& path, int node, int from) {
  for (std::size_t i = static_cast<std::size_t>(from); i < path.size(); ++i)
    if (path[i] == node) return static_cast<int>(i);
  return -1;
}

namespace {

/// BFS from `start` to `target` over live fibers, visiting only live
/// switches/servers (the target itself may additionally be a user).
/// Returns the node sequence start..target, or empty when unreachable.
std::vector<int> live_bfs(const Topology& topology,
                          const FaultInjector& injector, int slot, int start,
                          int target) {
  std::vector<int> parent(static_cast<std::size_t>(topology.num_nodes()), -2);
  std::queue<int> queue;
  queue.push(start);
  parent[static_cast<std::size_t>(start)] = -1;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    if (u == target) break;
    for (int e : topology.incident(u)) {
      if (injector.fiber_down(e, slot)) continue;
      const int v = topology.other_end(e, u);
      if (parent[static_cast<std::size_t>(v)] != -2) continue;
      // Only the target node may be a user, and dead nodes don't forward.
      if (v != target && !topology.is_switch_or_server(v)) continue;
      if (injector.node_down(v, slot)) continue;
      parent[static_cast<std::size_t>(v)] = u;
      queue.push(v);
    }
  }
  std::vector<int> route;
  if (parent[static_cast<std::size_t>(target)] == -2) return route;
  for (int v = target; v != -1; v = parent[static_cast<std::size_t>(v)])
    route.push_back(v);
  std::reverse(route.begin(), route.end());
  return route;
}

}  // namespace

bool local_reroute(const Topology& topology, const FaultInjector& injector,
                   int slot, std::vector<int>& path, int pos,
                   int target_node) {
  const int start = path[static_cast<std::size_t>(pos)];
  const auto detour = live_bfs(topology, injector, slot, start, target_node);
  if (detour.empty()) return false;
  // Splice: keep the prefix up to the current position and the tail
  // beyond the recovery target (later barriers and the destination).
  const int target_idx = find_on_path(path, target_node, pos);
  if (target_idx < 0) return false;
  std::vector<int> tail(path.begin() + target_idx + 1, path.end());
  path.resize(static_cast<std::size_t>(pos));
  path.insert(path.end(), detour.begin(), detour.end());
  path.insert(path.end(), tail.begin(), tail.end());
  return true;
}

void check_reroute_invariants(const Topology& topology,
                              const std::vector<int>& path, int pos,
                              const std::vector<int>& barriers) {
  SURFNET_ASSERT(path.size() >= 2, "rerouted path has %zu nodes",
                 path.size());
  SURFNET_ASSERT(pos >= 0 && pos < static_cast<int>(path.size()),
                 "reroute position %d outside path of %zu nodes", pos,
                 path.size());
  SURFNET_ASSERT(!barriers.empty(), "rerouted code has no barriers left");
  for (const int v : path)
    SURFNET_ASSERT(v >= 0 && v < topology.num_nodes(),
                   "rerouted path node %d outside [0, %d)", v,
                   topology.num_nodes());
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    SURFNET_ASSERT(topology.fiber_between(path[i], path[i + 1]) >= 0,
                   "rerouted path hop %d-%d has no fiber", path[i],
                   path[i + 1]);
  // The stretch still ahead of the code uses forwarding hardware only; a
  // user endpoint may appear solely as the final barrier (Eq. (3)
  // termination).
  for (std::size_t i = static_cast<std::size_t>(pos) + 1;
       i + 1 < path.size(); ++i)
    SURFNET_ASSERT(topology.is_switch_or_server(path[i]),
                   "rerouted path routes through user %d", path[i]);
  // Remaining barriers (EC servers, then the destination) in path order
  // from the code's current position (Eq. (4) coupling).
  int cursor = pos;
  for (const int barrier : barriers) {
    const int at = find_on_path(path, barrier, cursor);
    SURFNET_ASSERT(at >= 0,
                   "barrier node %d missing from the rerouted path (in "
                   "order)",
                   barrier);
    cursor = at + 1;
  }
  SURFNET_ASSERT(path.back() == barriers.back(),
                 "rerouted path ends at %d, destination barrier is %d",
                 path.back(), barriers.back());
}

}  // namespace surfnet::netsim
