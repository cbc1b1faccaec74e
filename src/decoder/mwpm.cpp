#include "decoder/mwpm.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "decoder/blossom.h"
#include "decoder/workspace.h"

namespace surfnet::decoder {

namespace {

/// Dijkstra from `source` into caller-owned rows of a flat per-syndrome
/// table. The frontier heap is reused across calls (a manual binary heap
/// over the shared buffer instead of a fresh priority_queue per syndrome).
void dijkstra_into(const qec::DecodingGraph& graph, int source,
                   const std::vector<double>& edge_w, double* dist,
                   int* parent_edge,
                   std::vector<std::pair<double, int>>& heap) {
  const int nv = graph.num_vertices();
  std::fill(dist, dist + nv, std::numeric_limits<double>::infinity());
  std::fill(parent_edge, parent_edge + nv, -1);
  const auto by_dist = std::greater<std::pair<double, int>>{};
  heap.clear();
  dist[source] = 0.0;
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), by_dist);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;
    // Paths do not continue through boundary vertices.
    if (graph.is_boundary(u) && u != source) continue;
    for (int e : graph.incident(u)) {
      const int v = graph.other_end(static_cast<std::size_t>(e), u);
      const double nd = d + edge_w[static_cast<std::size_t>(e)];
      if (nd < dist[v]) {
        dist[v] = nd;
        parent_edge[v] = e;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), by_dist);
      }
    }
  }
}

/// XOR the shortest path from `source` to `target` into `correction`,
/// walking parent edges backwards.
void apply_path(const qec::DecodingGraph& graph, const int* parent_edge,
                int source, int target, std::vector<char>& correction) {
  int v = target;
  while (v != source) {
    const int e = parent_edge[v];
    if (e < 0) throw std::logic_error("mwpm: broken shortest-path tree");
    correction[static_cast<std::size_t>(e)] ^= 1;
    v = graph.other_end(static_cast<std::size_t>(e), v);
  }
}

}  // namespace

std::vector<char> MwpmDecoder::decode(const DecodeInput& input) const {
  DecodeWorkspace ws;
  return decode(input, ws);
}

const std::vector<char>& MwpmDecoder::decode(const DecodeInput& input,
                                             DecodeWorkspace& ws) const {
  effective_error_prob(input, ws.prob);  // checks the input first
  const qec::DecodingGraph& graph = *input.graph;
  MwpmWorkspace& mw = ws.mwpm;

  mw.edge_weight.resize(graph.num_edges());
  for (std::size_t e = 0; e < graph.num_edges(); ++e)
    mw.edge_weight[e] = edge_weight(ws.prob[e]);

  mw.syndromes.clear();
  for (int v = 0; v < graph.num_real_vertices(); ++v)
    if (input.syndrome[static_cast<std::size_t>(v)]) mw.syndromes.push_back(v);

  ws.correction.assign(graph.num_edges(), 0);
  if (mw.syndromes.empty()) return ws.correction;

  const int s = static_cast<int>(mw.syndromes.size());
  const int nv = graph.num_vertices();
  mw.dist.resize(static_cast<std::size_t>(s) * static_cast<std::size_t>(nv));
  mw.parent_edge.resize(static_cast<std::size_t>(s) *
                        static_cast<std::size_t>(nv));
  const auto dist_row = [&](int i) {
    return mw.dist.data() + static_cast<std::size_t>(i) * nv;
  };
  const auto parent_row = [&](int i) {
    return mw.parent_edge.data() + static_cast<std::size_t>(i) * nv;
  };
  for (int i = 0; i < s; ++i)
    dijkstra_into(graph, mw.syndromes[static_cast<std::size_t>(i)],
                  mw.edge_weight, dist_row(i), parent_row(i), mw.heap);

  // Path graph: vertices [0, s) are syndromes, [s, 2s) their boundary
  // partners. Syndrome-partner edges use the distance to the nearer
  // boundary; partner-partner edges are free; cross syndrome-partner edges
  // are absent.
  const int bd_a = graph.boundary().first;
  const int bd_b = graph.boundary().second;
  const int n = 2 * s;
  // The matcher insists on an exactly n x n matrix; surviving rows keep
  // their capacity across decodes.
  mw.path_weight.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    mw.path_weight[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(n), kNoEdge);
  auto& w = mw.path_weight;
  mw.nearest_boundary.assign(static_cast<std::size_t>(s), bd_a);
  for (int i = 0; i < s; ++i) {
    const double* d = dist_row(i);
    for (int j = i + 1; j < s; ++j) {
      const double dij = d[mw.syndromes[static_cast<std::size_t>(j)]];
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = dij;
      w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = dij;
    }
    const double da = d[bd_a];
    const double db = d[bd_b];
    mw.nearest_boundary[static_cast<std::size_t>(i)] =
        (da <= db) ? bd_a : bd_b;
    const double dbound = std::min(da, db);
    w[static_cast<std::size_t>(i)][static_cast<std::size_t>(s + i)] = dbound;
    w[static_cast<std::size_t>(s + i)][static_cast<std::size_t>(i)] = dbound;
    for (int j = i + 1; j < s; ++j) {
      w[static_cast<std::size_t>(s + i)][static_cast<std::size_t>(s + j)] =
          0.0;
      w[static_cast<std::size_t>(s + j)][static_cast<std::size_t>(s + i)] =
          0.0;
    }
  }

  const auto matching = min_weight_perfect_matching(n, w);
  for (int i = 0; i < s; ++i) {
    const int mate = matching.mate[static_cast<std::size_t>(i)];
    if (mate < s) {
      if (mate > i)
        apply_path(graph, parent_row(i),
                   mw.syndromes[static_cast<std::size_t>(i)],
                   mw.syndromes[static_cast<std::size_t>(mate)],
                   ws.correction);
    } else {
      // Matched to the boundary: XOR the path to the nearer boundary vertex.
      apply_path(graph, parent_row(i),
                 mw.syndromes[static_cast<std::size_t>(i)],
                 mw.nearest_boundary[static_cast<std::size_t>(i)],
                 ws.correction);
    }
  }
  return ws.correction;
}

}  // namespace surfnet::decoder
