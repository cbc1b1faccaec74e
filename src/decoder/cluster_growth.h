#pragma once

// Shared cluster-growth engine behind the Union-Find baseline decoder and
// the SurfNet Decoder (paper Algorithm 2). Odd clusters (odd syndrome
// parity, not touching a boundary) grow their frontier edges every round;
// a fully grown edge fuses the clusters at its endpoints (union-find).
// Growth stops when no odd cluster remains; the grown region is then handed
// to the peeling decoder.
//
// The two decoders differ only in their growth policy:
//   * Union-Find baseline: every edge grows by half an edge per round and
//     erased edges are part of the region from the start (ref. [32]).
//   * SurfNet Decoder: edge e grows by speed(e) = -r / ln(1 - rho_e) per
//     round, so erasures (rho = 0.5) and low-fidelity Support qubits are
//     absorbed before high-fidelity Core qubits.

#include <vector>

#include "decoder/dsu.h"
#include "qec/graph.h"

namespace surfnet::decoder {

struct GrowthConfig {
  /// Growth added to an edge per round from EACH incident odd cluster,
  /// in units of the edge's length (1.0 = a whole edge).
  std::vector<double> speed;
  /// Edges fully grown before the first round (erasures, for the UF
  /// baseline). May be empty, meaning none.
  std::vector<char> pregrown;
  /// Safety cap on growth rounds; exceeded only on a bug or a pathological
  /// speed assignment.
  int max_rounds = 1 << 20;
};

/// Reusable growth state. Cluster metadata (parity, boundary flag,
/// frontier) is stored per vertex and is authoritative only at DSU roots.
/// The DSU also holds the boundary vertices, as singletons nothing joins.
///
/// A cluster's frontier is a linked list of its members' frontier segments:
/// slices of `slots`, each copied from the graph's incidence list when its
/// vertex first joins a cluster, compacted in place as edges turn interior,
/// and unlinked once empty. Fusion splices two lists in O(1) and keeps the
/// frontier order of concatenated per-cluster lists.
///
/// The workspace records every vertex and edge a decode touches and
/// restores only those entries before the next decode, so the per-decode
/// cost follows what the decode touches. Only grow_clusters writes the
/// growth state; a workspace may arrive from any decoder or graph size.
/// Buffers are never freed, so steady-state growth performs no heap
/// allocations.
struct GrowthWorkspace {
  Dsu dsu;
  std::vector<char> parity;
  std::vector<char> touches_boundary;
  std::vector<double> growth;
  std::vector<char> region;
  std::vector<int> slots;        ///< frontier segments, in touch order
  int slots_used = 0;
  std::vector<int> seg_begin;    ///< per vertex: its segment in `slots`
  std::vector<int> seg_len;      ///< per vertex: live segment length
  std::vector<int> next_member;  ///< per vertex: next nonempty segment
  std::vector<int> head;         ///< per root: first nonempty segment
  std::vector<int> tail;         ///< per root: last nonempty segment
  std::vector<int> stamp;        ///< per root: last round it was listed
  std::vector<char> touched;     ///< per vertex: joined a cluster
  std::vector<int> touched_vertices;
  std::vector<int> touched_edges;  ///< edges grown or pregrown
  std::vector<int> active;
  std::vector<int> next_active;
  std::vector<std::size_t> newly_grown;
  /// Scratch of check_growth_invariants (SURFNET_CHECKS); owned by the
  /// workspace so the validated decode path stays allocation-free at
  /// steady state.
  std::vector<int> dbg_members;
  std::vector<char> dbg_parity;
  std::vector<char> dbg_boundary;
};

/// Run cluster growth; returns the per-edge region mask (grown edges, which
/// always includes pregrown ones) suitable for peel_correction.
std::vector<char> grow_clusters(const qec::DecodingGraph& graph,
                                const std::vector<char>& syndrome,
                                const GrowthConfig& config);

/// Allocation-free variant: the region mask is written into (and returned
/// from) `ws.region`.
const std::vector<char>& grow_clusters(const qec::DecodingGraph& graph,
                                       const std::vector<char>& syndrome,
                                       const GrowthConfig& config,
                                       GrowthWorkspace& ws);

}  // namespace surfnet::decoder
