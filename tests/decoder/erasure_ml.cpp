#include "erasure_ml.h"

#include <stdexcept>

#include "util/contracts.h"

namespace surfnet::decoder {

const std::vector<char>& decode_erasure_ml(const qec::DecodingGraph& graph,
                                           const std::vector<char>& cut_edges,
                                           const std::vector<char>& erased,
                                           const std::vector<char>& syndrome,
                                           ErasureMlWorkspace& ws,
                                           ErasureMlInfo* info) {
  SURFNET_EXPECTS(cut_edges.size() == graph.num_edges(),
                  "cut bitmap covers %zu of %zu edges", cut_edges.size(),
                  graph.num_edges());
  if (erased.size() != graph.num_edges())
    throw std::invalid_argument("erasure_ml: erased size mismatch");
  if (syndrome.size() != static_cast<std::size_t>(graph.num_real_vertices()))
    throw std::invalid_argument("erasure_ml: syndrome size mismatch");

  const int nv = graph.num_vertices();
  ws.visited.assign(static_cast<std::size_t>(nv), 0);
  ws.pot.assign(static_cast<std::size_t>(nv), 0);
  ws.parent_edge.assign(static_cast<std::size_t>(nv), -1);
  ws.parent_vertex.assign(static_cast<std::size_t>(nv), -1);
  ws.in_tree.assign(graph.num_edges(), 0);
  ws.syndrome.assign(syndrome.begin(), syndrome.end());

  // Spanning forest of the erased subgraph, in the exact discovery order
  // of peel_correction: bitwise-identical forests make the non-degenerate
  // correction bitwise-identical to the plain peeling decoder's.
  ws.forest.clear();
  ws.forest.reserve(graph.num_edges());
  ws.stack.clear();
  auto dfs_from = [&](int root) {
    ws.stack.push_back(root);
    while (!ws.stack.empty()) {
      const int u = ws.stack.back();
      ws.stack.pop_back();
      for (int e : graph.incident(u)) {
        if (!erased[static_cast<std::size_t>(e)]) continue;
        const int v = graph.other_end(static_cast<std::size_t>(e), u);
        if (ws.visited[static_cast<std::size_t>(v)]) continue;
        ws.visited[static_cast<std::size_t>(v)] = 1;
        ws.pot[static_cast<std::size_t>(v)] = static_cast<char>(
            ws.pot[static_cast<std::size_t>(u)] ^
            cut_edges[static_cast<std::size_t>(e)]);
        ws.parent_edge[static_cast<std::size_t>(v)] = e;
        ws.parent_vertex[static_cast<std::size_t>(v)] = u;
        ws.in_tree[static_cast<std::size_t>(e)] = 1;
        ws.forest.push_back({e, u, v});
        ws.stack.push_back(v);
      }
    }
  };
  // All boundary vertices are one super-root of potential 0: mark them
  // visited first so no boundary vertex becomes a child, then grow from
  // them before any interior component gets its own root.
  for (int v = graph.num_real_vertices(); v < nv; ++v)
    ws.visited[static_cast<std::size_t>(v)] = 1;
  for (int v = graph.num_real_vertices(); v < nv; ++v) dfs_from(v);
  for (int v = 0; v < graph.num_real_vertices(); ++v) {
    if (ws.visited[static_cast<std::size_t>(v)]) continue;
    ws.visited[static_cast<std::size_t>(v)] = 1;
    dfs_from(v);
  }

  // Degeneracy scan over the non-tree erased edges. Each such edge closes
  // exactly one cycle of the super-rooted forest (a genuine cycle, or a
  // boundary-to-boundary path through the super-root); the cycle's
  // logical-cut parity is pot[u] ^ pot[v] ^ cut(e). One odd cycle is a
  // logical operator supported on the erasure — keep the first as the
  // witness for the class flip below.
  ErasureMlInfo decision;
  int witness_edge = -1;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    if (!erased[e] || ws.in_tree[e]) continue;
    const auto& edge = graph.edge(e);
    const char parity = static_cast<char>(
        ws.pot[static_cast<std::size_t>(edge.u)] ^
        ws.pot[static_cast<std::size_t>(edge.v)] ^ cut_edges[e]);
    if (parity) {
      decision.degenerate = true;
      witness_edge = static_cast<int>(e);
      break;
    }
  }

  // Peel leaves inward, exactly like peel_correction.
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
          "erasure_ml: unmatched syndrome (erased component has odd parity "
          "and no boundary)");

  // Class of the peeled correction: parity over the logical cut.
  char cls = 0;
  for (std::size_t e = 0; e < graph.num_edges(); ++e)
    cls ^= static_cast<char>(ws.correction[e] & cut_edges[e]);

  if (decision.degenerate && cls) {
    // Both classes are equiprobable; normalize to class 0 by XORing the
    // witness cycle into the correction. The cycle is the witness edge
    // plus both endpoints' tree paths to their roots: interior vertices
    // are touched twice, roots are boundary vertices (absorbed) or the
    // shared root of one component (touched by both paths), and any
    // shared path segment cancels under XOR — so the syndrome is
    // unchanged while the cut parity flips.
    const auto& edge = graph.edge(static_cast<std::size_t>(witness_edge));
    ws.correction[static_cast<std::size_t>(witness_edge)] ^= 1;
    for (int x : {edge.u, edge.v}) {
      while (ws.parent_edge[static_cast<std::size_t>(x)] != -1) {
        ws.correction[static_cast<std::size_t>(
            ws.parent_edge[static_cast<std::size_t>(x)])] ^= 1;
        x = ws.parent_vertex[static_cast<std::size_t>(x)];
      }
    }
    cls = 0;
  }
  decision.chosen_class = cls;
  if (info != nullptr) *info = decision;
  return ws.correction;
}

ErasureMlDecoder::ErasureMlDecoder(const qec::CodeLattice& lattice)
    : lattice_(&lattice) {
  for (const auto kind : {qec::GraphKind::Z, qec::GraphKind::X}) {
    std::vector<char>& flags =
        kind == qec::GraphKind::Z ? cut_flags_z_ : cut_flags_x_;
    flags.assign(lattice.graph(kind).num_edges(), 0);
    // Edge index == data-qubit index by the lattice contract.
    for (const int q : lattice.logical_cut(kind))
      flags[static_cast<std::size_t>(q)] = 1;
  }
}

const std::vector<char>& ErasureMlDecoder::cut_flags(
    const DecodeInput& input) const {
  if (input.graph == &lattice_->graph(qec::GraphKind::Z)) return cut_flags_z_;
  if (input.graph == &lattice_->graph(qec::GraphKind::X)) return cut_flags_x_;
  throw std::invalid_argument(
      "ErasureMlDecoder: input graph belongs to a different lattice");
}

std::vector<char> ErasureMlDecoder::decode(const DecodeInput& input) const {
  ErasureMlWorkspace ws;
  return decode_erasure_ml(*input.graph, cut_flags(input), input.erased,
                           input.syndrome, ws);
}

ErasureMlDecision ErasureMlDecoder::decode_with_info(
    const DecodeInput& input) const {
  ErasureMlWorkspace ws;
  ErasureMlDecision out;
  out.correction = decode_erasure_ml(*input.graph, cut_flags(input),
                                     input.erased, input.syndrome, ws,
                                     &out.info);
  return out;
}

}  // namespace surfnet::decoder
