#include "routing/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.h"

namespace surfnet::routing {

namespace {
constexpr double kFlowEps = 1e-6;
}  // namespace

/// BFS-based path stripping: repeatedly find any src->dst path through
/// edges with positive residual flow, strip its bottleneck. BFS guarantees
/// termination even when the LP solution contains flow cycles (those are
/// simply never reached and ignored).
std::vector<FlowPath> decompose_flow(const RoutingFormulation& formulation,
                                     int num_nodes, std::vector<double> flow,
                                     int src, int dst) {
  SURFNET_EXPECTS(src >= 0 && src < num_nodes);
  SURFNET_EXPECTS(dst >= 0 && dst < num_nodes);
  const int de_count = formulation.num_directed_edges();
  std::vector<FlowPath> paths;
  std::vector<char> visited;
  std::vector<int> via;
  std::vector<int> queue;  // FIFO: popped from `head` on
  for (int guard = 0; guard < 4 * de_count + 16; ++guard) {
    // BFS over positive-flow edges, each node's out-arcs in id order.
    visited.assign(static_cast<std::size_t>(num_nodes), 0);
    via.assign(static_cast<std::size_t>(num_nodes), -1);
    queue.assign(1, src);
    visited[static_cast<std::size_t>(src)] = 1;
    bool reached = false;
    for (std::size_t head = 0; head < queue.size() && !reached;) {
      const int u = queue[head++];
      for (const int de : formulation.out_arcs(u)) {
        if (flow[static_cast<std::size_t>(de)] <= kFlowEps) continue;
        const int v = formulation.edge_head(de);
        if (visited[static_cast<std::size_t>(v)]) continue;
        visited[static_cast<std::size_t>(v)] = 1;
        via[static_cast<std::size_t>(v)] = de;
        if (v == dst) {
          reached = true;
          break;
        }
        queue.push_back(v);
      }
    }
    if (!reached) break;

    // Walk back, collect the path and its bottleneck.
    std::vector<int> edges;
    for (int v = dst; v != src;) {
      const int de = via[static_cast<std::size_t>(v)];
      edges.push_back(de);
      v = formulation.edge_tail(de);
    }
    std::reverse(edges.begin(), edges.end());
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int de : edges)
      bottleneck = std::min(bottleneck, flow[static_cast<std::size_t>(de)]);
    for (int de : edges) flow[static_cast<std::size_t>(de)] -= bottleneck;

    FlowPath path;
    path.weight = bottleneck;
    path.nodes.push_back(src);
    for (int de : edges) path.nodes.push_back(formulation.edge_head(de));
    paths.push_back(std::move(path));
  }
  return paths;
}

/// Largest-remainder allocation of `total` integral codes to paths
/// proportionally to their fractional weights.
std::vector<int> allocate_codes(const std::vector<FlowPath>& paths,
                                int total) {
  std::vector<int> alloc(paths.size(), 0);
  int assigned = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    alloc[i] = static_cast<int>(std::floor(paths[i].weight + kFlowEps));
    assigned += alloc[i];
  }
  std::vector<std::size_t> by_remainder(paths.size());
  for (std::size_t i = 0; i < by_remainder.size(); ++i) by_remainder[i] = i;
  std::sort(by_remainder.begin(), by_remainder.end(),
            [&](std::size_t x, std::size_t y) {
              const double rx = paths[x].weight - std::floor(paths[x].weight);
              const double ry = paths[y].weight - std::floor(paths[y].weight);
              return rx > ry;
            });
  for (std::size_t i = 0; i < by_remainder.size() && assigned < total; ++i) {
    ++alloc[by_remainder[i]];
    ++assigned;
  }
  // Trim over-allocation (floor sums can exceed `total` only by LP noise).
  for (std::size_t i = paths.size(); i-- > 0 && assigned > total;) {
    const int cut = std::min(alloc[i], assigned - total);
    alloc[i] -= cut;
    assigned -= cut;
  }
  return alloc;
}

}  // namespace surfnet::routing
