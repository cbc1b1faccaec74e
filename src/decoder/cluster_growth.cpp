#include "decoder/cluster_growth.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "decoder/validate.h"
#include "util/contracts.h"

namespace surfnet::decoder {

namespace {

constexpr double kFullyGrown = 1.0 - 1e-9;

bool is_odd(const GrowthWorkspace& ws, int root) {
  return ws.parity[static_cast<std::size_t>(root)] &&
         !ws.touches_boundary[static_cast<std::size_t>(root)];
}

/// Undo the previous decode: restore exactly the entries it touched, then
/// size every buffer for this graph. Entries outside the touched lists are
/// already clean, so resizing keeps the whole workspace clean.
void restore(GrowthWorkspace& ws, const qec::DecodingGraph& graph) {
  for (const int v : ws.touched_vertices) {
    const auto i = static_cast<std::size_t>(v);
    ws.dsu.make_singleton(v);
    ws.touches_boundary[i] = 0;
    ws.stamp[i] = -1;
    ws.touched[i] = 0;
  }
  ws.touched_vertices.clear();
  for (const int e : ws.touched_edges) {
    ws.growth[static_cast<std::size_t>(e)] = 0.0;
    ws.region[static_cast<std::size_t>(e)] = 0;
  }
  ws.touched_edges.clear();
  ws.slots_used = 0;

  const auto nv = static_cast<std::size_t>(graph.num_real_vertices());
  const std::size_t ne = graph.num_edges();
  ws.dsu.resize(static_cast<std::size_t>(graph.num_vertices()));
  ws.touches_boundary.resize(nv, 0);
  ws.stamp.resize(nv, -1);
  ws.touched.resize(nv, 0);
  ws.seg_begin.resize(nv);
  ws.seg_len.resize(nv);
  ws.next_member.resize(nv);
  ws.head.resize(nv);
  ws.tail.resize(nv);
  ws.growth.resize(ne, 0.0);
  ws.region.resize(ne, 0);
  // Room for the worst case, so no decode allocates after the first.
  if (ws.slots.size() < 2 * ne) ws.slots.resize(2 * ne);
  ws.touched_vertices.reserve(nv);
  ws.touched_edges.reserve(ne);
  ws.active.reserve(nv);
  ws.next_active.reserve(nv);
  ws.newly_grown.reserve(ne);
}

/// First time vertex v joins a cluster: record it for restore() and copy
/// its incidence list in as its frontier segment.
void touch(GrowthWorkspace& ws, const qec::DecodingGraph& graph, int v) {
  const auto i = static_cast<std::size_t>(v);
  if (ws.touched[i]) return;
  ws.touched[i] = 1;
  ws.touched_vertices.push_back(v);
  const auto incident = graph.incident(v);
  const int degree = static_cast<int>(incident.size());
  ws.seg_begin[i] = ws.slots_used;
  ws.seg_len[i] = degree;
  int* seg = ws.slots.data() + ws.slots_used;
  for (int k = 0; k < degree; ++k)
    seg[k] = incident[static_cast<std::size_t>(k)];
  ws.slots_used += degree;
  ws.next_member[i] = -1;
  ws.head[i] = degree > 0 ? v : -1;
  ws.tail[i] = ws.head[i];
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
    touch(ws, graph, root);
    ws.touches_boundary[static_cast<std::size_t>(root)] = 1;
    return root;
  }
  const int ru = ws.dsu.find(edge.u);
  const int rv = ws.dsu.find(edge.v);
  if (ru == rv) return -1;
  touch(ws, graph, ru);
  touch(ws, graph, rv);
  const int survivor = ws.dsu.unite(ru, rv);
  const int other = (survivor == ru) ? rv : ru;
  const auto s = static_cast<std::size_t>(survivor);
  const auto o = static_cast<std::size_t>(other);
  ws.parity[s] = static_cast<char>(ws.parity[s] ^ ws.parity[o]);
  ws.touches_boundary[s] |= ws.touches_boundary[o];
  // The survivor's frontier continues with the other cluster's.
  if (ws.head[o] >= 0) {
    if (ws.head[s] < 0)
      ws.head[s] = ws.head[o];
    else
      ws.next_member[static_cast<std::size_t>(ws.tail[s])] = ws.head[o];
    ws.tail[s] = ws.tail[o];
    ws.head[o] = -1;
  }
  return survivor;
}

/// Grow every frontier edge of one odd cluster by its speed, dropping the
/// edges that turned interior (already in the region, or with both ends
/// in this cluster) and unlinking the segments that ran empty. Returns the
/// number of edges grown.
std::size_t grow_cluster(GrowthWorkspace& ws, const qec::DecodingGraph& graph,
                         const GrowthConfig& config, int root) {
  const auto r = static_cast<std::size_t>(root);
  std::size_t grown = 0;
  int prev = -1;
  int member = ws.head[r];
  while (member >= 0) {
    const auto m = static_cast<std::size_t>(member);
    int* seg = ws.slots.data() + ws.seg_begin[m];
    const int len = ws.seg_len[m];
    int keep = 0;
    for (int i = 0; i < len; ++i) {
      const int e = seg[i];
      const auto ei = static_cast<std::size_t>(e);
      const auto& edge = graph.edge(ei);
      // The far end of a boundary edge is a boundary vertex: a DSU
      // singleton, never this root.
      const int far = edge.u ^ edge.v ^ member;
      if (ws.region[ei] || ws.dsu.find(far) == root)
        continue;  // interior: drop from frontier
      seg[keep++] = e;
      double& growth = ws.growth[ei];
      if (growth == 0.0) ws.touched_edges.push_back(e);
      growth += config.speed[ei];
      if (growth >= kFullyGrown) {
        ws.region[ei] = 1;
        ws.newly_grown.push_back(ei);
      }
    }
    grown += static_cast<std::size_t>(keep);
    ws.seg_len[m] = keep;
    const int next = ws.next_member[m];
    if (keep > 0) {
      prev = member;
    } else {
      if (prev < 0)
        ws.head[r] = next;
      else
        ws.next_member[static_cast<std::size_t>(prev)] = next;
      if (ws.tail[r] == member) ws.tail[r] = prev;
    }
    member = next;
  }
  return grown;
}

}  // namespace

std::vector<char> grow_clusters(const qec::DecodingGraph& graph,
                                const std::vector<char>& syndrome,
                                const GrowthConfig& config) {
  GrowthWorkspace ws;
  return grow_clusters(graph, syndrome, config, ws);
}

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
  restore(ws, graph);
  ws.parity.assign(syndrome.begin(), syndrome.end());

  // Seed the region with pregrown (erased) edges and fuse through them.
  if (!config.pregrown.empty()) {
    for (std::size_t e = 0; e < graph.num_edges(); ++e) {
      if (!config.pregrown[e]) continue;
      ws.region[e] = 1;
      ws.growth[e] = 1.0;
      ws.touched_edges.push_back(static_cast<int>(e));
      fuse(ws, graph, e);
    }
  }

  // Initial active set: the odd clusters, in ascending root order. Each
  // holds a syndrome vertex, so only those need looking at; an odd root
  // seen twice is dropped by the first round's deduplication.
  ws.active.clear();
  for (std::size_t v = 0; v < nv; ++v) {
    if (!syndrome[v]) continue;
    const int root = ws.dsu.find(static_cast<int>(v));
    if (is_odd(ws, root)) ws.active.push_back(root);
  }
  if (!std::is_sorted(ws.active.begin(), ws.active.end()))
    std::sort(ws.active.begin(), ws.active.end());
  for (const int root : ws.active) touch(ws, graph, root);

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
    for (int root : ws.active)
      edges_touched += grow_cluster(ws, graph, config, root);
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

#if SURFNET_CHECKS
  check_growth_invariants(graph, syndrome, config, ws);
#endif
  return ws.region;
}

}  // namespace surfnet::decoder
