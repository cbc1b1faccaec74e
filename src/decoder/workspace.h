#pragma once

// Reusable decode scratch. A DecodeWorkspace owns every buffer the cluster
// decoders need (growth state, peeling state, effective probabilities,
// growth config, correction output), so a hot loop that keeps one workspace
// per thread performs no steady-state heap allocations per decode. Any
// decoder can be handed any workspace, and the same workspace may be
// reused across graphs of different sizes (buffers only ever grow). Buffers
// are reinitialized per decode, except the growth state: only grow_clusters
// writes it, and it restores exactly the entries its previous decode
// touched (decoder/cluster_growth.h).

#include <utility>
#include <vector>

#include "decoder/cluster_growth.h"
#include "decoder/peeling.h"

namespace surfnet::decoder {

/// Scratch of the MWPM decoder: per-edge weights, the syndrome list, one
/// Dijkstra tree per syndrome (dist/parent stored row-major, s x V), the
/// shared Dijkstra frontier, and the syndrome path graph handed to the
/// blossom matcher.
struct MwpmWorkspace {
  std::vector<double> edge_weight;            ///< per edge
  std::vector<int> syndromes;                 ///< lit real vertices
  std::vector<double> dist;                   ///< s x V shortest distances
  std::vector<int> parent_edge;               ///< s x V parent edges
  std::vector<std::pair<double, int>> heap;   ///< Dijkstra frontier
  std::vector<int> nearest_boundary;          ///< per syndrome
  std::vector<std::vector<double>> path_weight;  ///< matching input, 2s x 2s
};

struct DecodeWorkspace {
  GrowthWorkspace growth;
  PeelWorkspace peel;
  GrowthConfig config;            ///< reused speed / pregrown buffers
  MwpmWorkspace mwpm;
  std::vector<double> prob;       ///< effective per-edge error probability
  std::vector<char> correction;   ///< output of the allocating fallback
};

}  // namespace surfnet::decoder
