// Reference cluster growth and peeling: the decoder's grow_clusters and
// peel_correction as they were before growth tracked the entries a decode
// touches, kept as the oracle for tests/decoder/growth_oracle_test.cpp.

#include "growth_reference.h"

#include <stdexcept>
#include <utility>

namespace surfnet::decoder::reference {

namespace {

constexpr double kFullyGrown = 1.0 - 1e-9;

bool is_odd(const GrowthWorkspace& ws, int root) {
  return ws.parity[static_cast<std::size_t>(root)] &&
         !ws.touches_boundary[static_cast<std::size_t>(root)];
}

/// Fuse the endpoints of a fully grown edge. Returns the surviving root
/// when a union happened, or the affected root when the edge hit a
/// boundary, or -1 when nothing changed.
int fuse(GrowthWorkspace& ws, const qec::DecodingGraph& graph,
         std::size_t e) {
  const auto& edge = graph.edge(e);
  const bool bu = graph.is_boundary(edge.u);
  const bool bv = graph.is_boundary(edge.v);
  if (bu && bv) return -1;
  if (bu || bv) {
    const int real = bu ? edge.v : edge.u;
    const int root = ws.dsu.find(real);
    ws.touches_boundary[static_cast<std::size_t>(root)] = 1;
    return root;
  }
  const int ru = ws.dsu.find(edge.u);
  const int rv = ws.dsu.find(edge.v);
  if (ru == rv) return -1;
  const int survivor = ws.dsu.unite(ru, rv);
  const int other = (survivor == ru) ? rv : ru;
  ws.parity[static_cast<std::size_t>(survivor)] =
      static_cast<char>(ws.parity[static_cast<std::size_t>(survivor)] ^
                        ws.parity[static_cast<std::size_t>(other)]);
  ws.touches_boundary[static_cast<std::size_t>(survivor)] |=
      ws.touches_boundary[static_cast<std::size_t>(other)];
  auto& dst = ws.frontier[static_cast<std::size_t>(survivor)];
  auto& src = ws.frontier[static_cast<std::size_t>(other)];
  dst.insert(dst.end(), src.begin(), src.end());
  src.clear();
  return survivor;
}

}  // namespace

const std::vector<char>& grow_clusters(const qec::DecodingGraph& graph,
                                       const std::vector<char>& syndrome,
                                       const GrowthConfig& config,
                                       GrowthWorkspace& ws) {
  if (syndrome.size() != static_cast<std::size_t>(graph.num_real_vertices()))
    throw std::invalid_argument("grow_clusters: syndrome size mismatch");
  if (config.speed.size() != graph.num_edges())
    throw std::invalid_argument("grow_clusters: speed size mismatch");
  if (!config.pregrown.empty() && config.pregrown.size() != graph.num_edges())
    throw std::invalid_argument("grow_clusters: pregrown size mismatch");

  const auto nv = static_cast<std::size_t>(graph.num_real_vertices());
  ws.dsu.reset(nv);
  ws.parity.assign(syndrome.begin(), syndrome.end());
  ws.touches_boundary.assign(nv, 0);
  // Never shrink the frontier table: inner vectors keep their capacity
  // across decodes (only the first nv entries are used).
  if (ws.frontier.size() < nv) ws.frontier.resize(nv);
  for (int v = 0; v < graph.num_real_vertices(); ++v) {
    const auto incident = graph.incident(v);
    ws.frontier[static_cast<std::size_t>(v)].assign(incident.begin(),
                                                    incident.end());
  }
  ws.growth.assign(graph.num_edges(), 0.0);
  ws.region.assign(graph.num_edges(), 0);
  ws.stamp.assign(nv, -1);

  // Seed the region with pregrown (erased) edges and fuse through them.
  if (!config.pregrown.empty()) {
    for (std::size_t e = 0; e < graph.num_edges(); ++e) {
      if (!config.pregrown[e]) continue;
      ws.region[e] = 1;
      ws.growth[e] = 1.0;
      fuse(ws, graph, e);
    }
  }

  // Initial active set: odd clusters.
  ws.active.clear();
  for (int v = 0; v < graph.num_real_vertices(); ++v)
    if (ws.dsu.find(v) == v && is_odd(ws, v)) ws.active.push_back(v);

  int round = 0;
  while (true) {
    if (++round > config.max_rounds)
      throw std::logic_error("grow_clusters: round cap exceeded");

    // Keep only the clusters that are still odd, deduplicated by root.
    // Fusions happen between rounds, so roots are stable within a round.
    ws.next_active.clear();
    for (int r : ws.active) {
      const int root = ws.dsu.find(r);
      if (ws.stamp[static_cast<std::size_t>(root)] == round) continue;
      ws.stamp[static_cast<std::size_t>(root)] = round;
      if (is_odd(ws, root)) ws.next_active.push_back(root);
    }
    if (ws.next_active.empty()) break;
    std::swap(ws.active, ws.next_active);

    ws.newly_grown.clear();
    std::size_t edges_touched = 0;

    for (int root : ws.active) {
      auto& edges = ws.frontier[static_cast<std::size_t>(root)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto e = static_cast<std::size_t>(edges[i]);
        if (ws.region[e]) continue;  // interior: drop from frontier
        const auto& edge = graph.edge(e);
        if (!graph.is_boundary(edge.u) && !graph.is_boundary(edge.v) &&
            ws.dsu.same(edge.u, edge.v))
          continue;  // both ends inside this cluster: drop
        edges[keep++] = edges[i];
        ++edges_touched;
        ws.growth[e] += config.speed[e];
        if (ws.growth[e] >= kFullyGrown) {
          ws.region[e] = 1;
          ws.newly_grown.push_back(e);
        }
      }
      edges.resize(keep);
    }
    // A round where no odd cluster had any frontier edge to grow can never
    // make progress: the syndrome is undecodable (bug or bad input).
    if (edges_touched == 0)
      throw std::logic_error("grow_clusters: odd clusters cannot expand");

    ws.next_active.clear();
    for (std::size_t e : ws.newly_grown) {
      const int root = fuse(ws, graph, e);
      if (root >= 0 && is_odd(ws, ws.dsu.find(root)))
        ws.next_active.push_back(ws.dsu.find(root));
    }
    for (int r : ws.active) {
      const int root = ws.dsu.find(r);
      if (is_odd(ws, root)) ws.next_active.push_back(root);
    }
    std::swap(ws.active, ws.next_active);
  }

  return ws.region;
}

const std::vector<char>& peel_correction(const qec::DecodingGraph& graph,
                                         const std::vector<char>& region,
                                         const std::vector<char>& syndrome,
                                         PeelWorkspace& ws) {
  if (region.size() != graph.num_edges())
    throw std::invalid_argument("peel: region size mismatch");
  if (syndrome.size() != static_cast<std::size_t>(graph.num_real_vertices()))
    throw std::invalid_argument("peel: syndrome size mismatch");

  const int nv = graph.num_vertices();
  ws.visited.assign(static_cast<std::size_t>(nv), 0);
  ws.syndrome.assign(syndrome.begin(), syndrome.end());

  // Tree edges in discovery order: (edge id, parent vertex, child vertex).
  ws.forest.clear();
  ws.forest.reserve(graph.num_edges());

  ws.stack.clear();
  auto dfs_from = [&](int root) {
    ws.stack.push_back(root);
    while (!ws.stack.empty()) {
      const int u = ws.stack.back();
      ws.stack.pop_back();
      for (int e : graph.incident(u)) {
        if (!region[static_cast<std::size_t>(e)]) continue;
        const int v = graph.other_end(static_cast<std::size_t>(e), u);
        if (ws.visited[static_cast<std::size_t>(v)]) continue;
        ws.visited[static_cast<std::size_t>(v)] = 1;
        ws.forest.push_back({e, u, v});
        ws.stack.push_back(v);
      }
    }
  };

  // Boundary vertices are the preferred forest roots so that leftover
  // syndrome parity in boundary-touching components is absorbed there.
  // Mark all boundaries visited first so no boundary vertex becomes a child.
  for (int v = graph.num_real_vertices(); v < nv; ++v)
    ws.visited[static_cast<std::size_t>(v)] = 1;
  for (int v = graph.num_real_vertices(); v < nv; ++v) dfs_from(v);
  for (int v = 0; v < graph.num_real_vertices(); ++v) {
    if (ws.visited[static_cast<std::size_t>(v)]) continue;
    ws.visited[static_cast<std::size_t>(v)] = 1;
    dfs_from(v);
  }

  // Peel leaves inward: reverse discovery order guarantees each child is
  // processed before its parent.
  ws.correction.assign(graph.num_edges(), 0);
  for (auto it = ws.forest.rbegin(); it != ws.forest.rend(); ++it) {
    const int child = it->child;
    if (!ws.syndrome[static_cast<std::size_t>(child)]) continue;
    ws.correction[static_cast<std::size_t>(it->edge)] = 1;
    ws.syndrome[static_cast<std::size_t>(child)] = 0;
    if (!graph.is_boundary(it->parent))
      ws.syndrome[static_cast<std::size_t>(it->parent)] ^= 1;
  }

  for (char bit : ws.syndrome)
    if (bit)
      throw std::logic_error(
          "peel: unmatched syndrome (region component has odd parity and no "
          "boundary)");
  return ws.correction;
}

}  // namespace surfnet::decoder::reference
