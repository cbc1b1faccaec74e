#include "routing/purification.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::ScheduledRequest;
using netsim::Topology;

namespace {

/// Minimum-noise path through switches/servers with pair budget remaining.
std::optional<std::vector<int>> budget_path(const Topology& topology,
                                            const std::vector<double>& budget,
                                            double demand, int src, int dst) {
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
    for (int e : topology.incident(u)) {
      if (budget[static_cast<std::size_t>(e)] < demand) continue;
      const int v = topology.other_end(e, u);
      if (v != dst && !topology.is_switch_or_server(v)) continue;
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

}  // namespace

Schedule route_purification(const Topology& topology,
                            const std::vector<Request>& requests,
                            const PurificationParams& params,
                            util::Rng& rng) {
  if (params.extra_pairs < 0)
    throw std::invalid_argument(
        "route_purification: extra_pairs must be >= 0");
  Schedule schedule;
  schedule.requested_codes = netsim::requested_codes(requests);

  std::vector<double> budget(static_cast<std::size_t>(topology.num_fibers()));
  for (int e = 0; e < topology.num_fibers(); ++e)
    budget[static_cast<std::size_t>(e)] = topology.fiber(e).entanglement_capacity;
  const double demand = 1.0 + params.extra_pairs;

  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  for (std::size_t k : order) {
    const Request& req = requests[k];
    for (int code = 0; code < req.codes; ++code) {
      const auto path =
          budget_path(topology, budget, demand, req.src, req.dst);
      if (!path) break;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const int e = topology.fiber_between((*path)[i], (*path)[i + 1]);
        budget[static_cast<std::size_t>(e)] -= demand;
      }
      if (!schedule.scheduled.empty()) {
        auto& last = schedule.scheduled.back();
        if (last.request_index == static_cast<int>(k) &&
            last.core_path == *path) {
          ++last.codes;
          continue;
        }
      }
      ScheduledRequest s;
      s.request_index = static_cast<int>(k);
      s.codes = 1;
      s.core_path = *path;       // teleportation path
      s.support_path = *path;    // kept for plan validation symmetry
      schedule.scheduled.push_back(std::move(s));
    }
  }
  return schedule;
}

}  // namespace surfnet::routing
