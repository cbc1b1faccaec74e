#include "qec/validate.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace surfnet::qec {

void check_graph_invariants(const DecodingGraph& graph) {
  const int nv = graph.num_vertices();
  const int nreal = graph.num_real_vertices();
  SURFNET_ASSERT(nreal >= 0 && nreal <= nv, "real=%d vertices=%d", nreal, nv);

  const BoundaryIds boundary = graph.boundary();
  if (boundary.first >= 0)
    SURFNET_ASSERT(graph.is_boundary(boundary.first) && boundary.first < nv,
                   "boundary.first=%d", boundary.first);
  if (boundary.second >= 0)
    SURFNET_ASSERT(graph.is_boundary(boundary.second) && boundary.second < nv,
                   "boundary.second=%d", boundary.second);

  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const GraphEdge& edge = graph.edge(e);
    SURFNET_ASSERT(edge.u >= 0 && edge.u < nv && edge.v >= 0 && edge.v < nv,
                   "edge %zu endpoints (%d, %d) out of [0, %d)", e, edge.u,
                   edge.v, nv);
    SURFNET_ASSERT(!(graph.is_boundary(edge.u) && graph.is_boundary(edge.v)),
                   "edge %zu connects two boundary vertices", e);
  }

  // Incidence index <-> edge list consistency: every incident edge lists
  // the vertex as an endpoint, and every edge appears under each distinct
  // endpoint exactly once.
  std::size_t incident_total = 0;
  for (int v = 0; v < nv; ++v) {
    for (const int e : graph.incident(v)) {
      SURFNET_ASSERT(e >= 0 && static_cast<std::size_t>(e) < graph.num_edges(),
                     "vertex %d lists edge %d outside [0, %zu)", v, e,
                     graph.num_edges());
      const GraphEdge& edge = graph.edge(static_cast<std::size_t>(e));
      SURFNET_ASSERT(edge.u == v || edge.v == v,
                     "vertex %d lists edge %d it is not an endpoint of", v, e);
      ++incident_total;
    }
  }
  std::size_t endpoint_total = 0;
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    const GraphEdge& edge = graph.edge(e);
    endpoint_total += (edge.u == edge.v) ? 1u : 2u;
  }
  SURFNET_ASSERT(incident_total == endpoint_total,
                 "incidence index holds %zu entries for %zu edge endpoints",
                 incident_total, endpoint_total);
}

namespace {

void check_cut(const CodeLattice& lattice, GraphKind kind) {
  const auto& cut = lattice.logical_cut(kind);
  const int nq = lattice.num_data_qubits();
  SURFNET_ASSERT(!cut.empty(), "logical cut is empty");
  std::vector<char> in_cut(static_cast<std::size_t>(nq), 0);
  for (const int q : cut) {
    SURFNET_ASSERT(q >= 0 && q < nq, "cut qubit %d outside [0, %d)", q, nq);
    SURFNET_ASSERT(!in_cut[static_cast<std::size_t>(q)],
                   "cut lists qubit %d twice", q);
    in_cut[static_cast<std::size_t>(q)] = 1;
  }
  int crossings = 0;
  for (const int q : lattice.logical_operator(kind)) {
    SURFNET_ASSERT(q >= 0 && q < nq,
                   "logical operator qubit %d outside [0, %d)", q, nq);
    crossings += in_cut[static_cast<std::size_t>(q)];
  }
  SURFNET_ASSERT(crossings % 2 == 1,
                 "logical operator crosses its cut %d times (must be odd)",
                 crossings);
}

}  // namespace

void check_lattice_invariants(const CodeLattice& lattice) {
  SURFNET_ASSERT(lattice.distance() >= 2, "distance=%d", lattice.distance());
  const int nq = lattice.num_data_qubits();
  SURFNET_ASSERT(nq >= 1, "num_data_qubits=%d", nq);

  for (const GraphKind kind : {GraphKind::Z, GraphKind::X}) {
    const DecodingGraph& graph = lattice.graph(kind);
    check_graph_invariants(graph);
    SURFNET_ASSERT(graph.num_edges() == static_cast<std::size_t>(nq),
                   "%zu edges for %d data qubits", graph.num_edges(), nq);
    for (std::size_t e = 0; e < graph.num_edges(); ++e)
      SURFNET_ASSERT(graph.edge(e).data_qubit == static_cast<int>(e),
                     "edge %zu carries data qubit %d (contract: edge index == "
                     "data-qubit index)",
                     e, graph.edge(e).data_qubit);
    check_cut(lattice, kind);
  }

  // Distinct coordinates: neighbours in coordinate order differ, which
  // keeps the check O(n log n) on large lattices.
  std::vector<int> by_coord(static_cast<std::size_t>(nq));
  std::iota(by_coord.begin(), by_coord.end(), 0);
  const auto key = [&](int q) {
    const Coord rc = lattice.data_coord(q);
    return std::pair{rc.r, rc.c};
  };
  std::sort(by_coord.begin(), by_coord.end(),
            [&](int a, int b) { return key(a) < key(b); });
  for (std::size_t i = 1; i < by_coord.size(); ++i)
    SURFNET_ASSERT(key(by_coord[i - 1]) != key(by_coord[i]),
                   "data qubits %d and %d share a coordinate",
                   std::min(by_coord[i - 1], by_coord[i]),
                   std::max(by_coord[i - 1], by_coord[i]));

  const CoreSupportPartition part = lattice.core_partition();
  SURFNET_ASSERT(part.is_core.size() == static_cast<std::size_t>(nq),
                 "core mask covers %zu of %d qubits", part.is_core.size(), nq);
  int core = 0;
  for (const char bit : part.is_core) core += bit ? 1 : 0;
  SURFNET_ASSERT(core == part.num_core, "mask has %d core qubits, count says %d",
                 core, part.num_core);
  SURFNET_ASSERT(part.num_core + part.num_support == nq,
                 "core %d + support %d != %d", part.num_core, part.num_support,
                 nq);
  SURFNET_ASSERT(part.num_core >= 1, "empty core partition");
}

}  // namespace surfnet::qec
