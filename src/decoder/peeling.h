#pragma once

// Peeling decoder (Delfosse-Zemor, paper ref. [39]): linear-time maximum
// likelihood decoding over a known erased region. Given a subgraph (the
// "region": erased edges plus edges grown by a cluster decoder) in which
// every connected component either has even syndrome parity or touches a
// boundary vertex, the peeler builds a spanning forest rooted at boundary
// vertices and peels leaf edges inward, emitting a correction that exactly
// reproduces the syndrome.

#include <vector>

#include "qec/graph.h"

namespace surfnet::decoder {

/// Reusable scratch buffers for peel_correction. Buffers are sized on
/// first use and keep their capacity across calls, so steady-state peeling
/// performs no heap allocations.
struct PeelWorkspace {
  struct TreeEdge {
    int edge;
    int parent;
    int child;
  };
  std::vector<char> visited;      ///< per vertex: on region, in forest
  std::vector<char> syndrome;     ///< mutable copy of the input, per vertex
  std::vector<TreeEdge> forest;   ///< tree edges in discovery order
  std::vector<int> stack;
  std::vector<char> correction;
  /// Scratch of check_peel_invariants (SURFNET_CHECKS); owned by the
  /// workspace so the validated decode path stays allocation-free at
  /// steady state.
  std::vector<char> dbg_parity;
};

/// Peel a correction out of `region`. `syndrome` is a bitmap over real
/// vertices; every syndrome vertex must lie inside the region and every
/// region component must be matchable (even parity or boundary-touching),
/// otherwise std::logic_error is thrown.
std::vector<char> peel_correction(const qec::DecodingGraph& graph,
                                  const std::vector<char>& region,
                                  std::vector<char> syndrome);

/// Allocation-free variant: the correction is written into (and returned
/// from) `ws.correction`.
const std::vector<char>& peel_correction(const qec::DecodingGraph& graph,
                                         const std::vector<char>& region,
                                         const std::vector<char>& syndrome,
                                         PeelWorkspace& ws);

}  // namespace surfnet::decoder
