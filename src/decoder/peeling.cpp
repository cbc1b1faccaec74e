#include "decoder/peeling.h"

#include <algorithm>
#include <stdexcept>

#include "decoder/validate.h"
#include "util/contracts.h"

namespace surfnet::decoder {

std::vector<char> peel_correction(const qec::DecodingGraph& graph,
                                  const std::vector<char>& region,
                                  std::vector<char> syndrome) {
  PeelWorkspace ws;
  return peel_correction(graph, region, syndrome, ws);
}

namespace {

using TreeEdge = PeelWorkspace::TreeEdge;

/// Per-vertex state bits of the forest search.
constexpr char kInForest = 1;
constexpr char kOnRegion = 2;

/// Depth-first search over region edges from `root`, appending tree edges
/// to `forest` in discovery order; returns the new forest size. Raw
/// pointers keep the byte stores from forcing reloads of every buffer.
std::size_t dfs_from(const qec::DecodingGraph& graph, const char* region,
                     char* state, TreeEdge* forest, int* stack, int root,
                     std::size_t forest_size) {
  std::size_t top = 0;
  stack[top++] = root;
  while (top > 0) {
    const int u = stack[--top];
    for (const int e : graph.incident(u)) {
      if (!region[e]) continue;
      const auto& edge = graph.edge(static_cast<std::size_t>(e));
      const int v = edge.u ^ edge.v ^ u;
      if (state[v] & kInForest) continue;
      state[v] = static_cast<char>(state[v] | kInForest);
      forest[forest_size++] = {e, u, v};
      stack[top++] = v;
    }
  }
  return forest_size;
}

}  // namespace

const std::vector<char>& peel_correction(const qec::DecodingGraph& graph,
                                         const std::vector<char>& region,
                                         const std::vector<char>& syndrome,
                                         PeelWorkspace& ws) {
  if (region.size() != graph.num_edges())
    throw std::invalid_argument("peel: region size mismatch");
  if (syndrome.size() != static_cast<std::size_t>(graph.num_real_vertices()))
    throw std::invalid_argument("peel: syndrome size mismatch");

  const int nv = graph.num_vertices();
  const int nreal = graph.num_real_vertices();
  const auto n = static_cast<std::size_t>(nv);
  ws.visited.assign(n, 0);
  // Boundary entries absorb the parity peeled into a boundary vertex.
  ws.syndrome.assign(n, 0);
  std::copy(syndrome.begin(), syndrome.end(), ws.syndrome.begin());
  // Every vertex is a forest child at most once and is pushed at most once.
  ws.forest.resize(n);
  ws.stack.resize(n);
  const char* in_region = region.data();
  char* state = ws.visited.data();
  std::size_t forest_size = 0;

  // Mark the vertices on region edges: only they can hold a forest edge,
  // so only they need a look as forest roots.
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    if (!in_region[e]) continue;
    const auto& edge = graph.edge(e);
    state[edge.u] = kOnRegion;
    state[edge.v] = kOnRegion;
  }

  // Boundary vertices are the preferred forest roots so that leftover
  // syndrome parity in boundary-touching components is absorbed there.
  // Mark all boundaries visited first so no boundary vertex becomes a child.
  for (int v = nreal; v < nv; ++v) state[v] = kInForest;
  for (int v = nreal; v < nv; ++v)
    forest_size = dfs_from(graph, in_region, state, ws.forest.data(),
                           ws.stack.data(), v, forest_size);
  // The other components are rooted at their lowest vertex.
  for (int v = 0; v < nreal; ++v) {
    if (state[v] != kOnRegion) continue;
    state[v] |= kInForest;
    forest_size = dfs_from(graph, in_region, state, ws.forest.data(),
                           ws.stack.data(), v, forest_size);
  }

  // Peel leaves inward: reverse discovery order guarantees each child is
  // processed before its parent.
  ws.correction.assign(graph.num_edges(), 0);
  for (std::size_t i = forest_size; i-- > 0;) {
    const auto& tree = ws.forest[i];
    const char lit = ws.syndrome[static_cast<std::size_t>(tree.child)] != 0;
    ws.correction[static_cast<std::size_t>(tree.edge)] = lit;
    ws.syndrome[static_cast<std::size_t>(tree.child)] = 0;
    ws.syndrome[static_cast<std::size_t>(tree.parent)] ^= lit;
  }

  char unmatched = 0;
  for (int v = 0; v < nreal; ++v)
    unmatched |= ws.syndrome[static_cast<std::size_t>(v)];
  if (unmatched)
    throw std::logic_error(
        "peel: unmatched syndrome (region component has odd parity and no "
        "boundary)");
#if SURFNET_CHECKS
  check_peel_invariants(graph, region, syndrome, ws.correction, ws.dbg_parity);
#endif
  return ws.correction;
}

}  // namespace surfnet::decoder
