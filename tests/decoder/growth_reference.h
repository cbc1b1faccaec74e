#pragma once

// Reference cluster growth and peeling for the growth oracle test: the
// straightforward implementations the decoder's touched-entries versions
// must match bit for bit (growth_reference.cpp). Every decode re-copies
// each vertex's incidence list into a per-vertex frontier vector and
// re-assigns every buffer; peeling runs its DFS from every vertex.

#include <cstddef>
#include <vector>

#include "decoder/cluster_growth.h"
#include "decoder/dsu.h"
#include "qec/graph.h"

namespace surfnet::decoder::reference {

struct GrowthWorkspace {
  Dsu dsu;
  std::vector<char> parity;
  std::vector<char> touches_boundary;
  std::vector<std::vector<int>> frontier;
  std::vector<double> growth;
  std::vector<char> region;
  std::vector<int> stamp;
  std::vector<int> active;
  std::vector<int> next_active;
  std::vector<std::size_t> newly_grown;
};

/// grow_clusters' contract: the region mask is written into (and returned
/// from) `ws.region`.
const std::vector<char>& grow_clusters(const qec::DecodingGraph& graph,
                                       const std::vector<char>& syndrome,
                                       const GrowthConfig& config,
                                       GrowthWorkspace& ws);

struct PeelWorkspace {
  struct TreeEdge {
    int edge;
    int parent;
    int child;
  };
  std::vector<char> visited;
  std::vector<char> syndrome;
  std::vector<TreeEdge> forest;
  std::vector<int> stack;
  std::vector<char> correction;
};

/// peel_correction's contract: the correction is written into (and
/// returned from) `ws.correction`.
const std::vector<char>& peel_correction(const qec::DecodingGraph& graph,
                                         const std::vector<char>& region,
                                         const std::vector<char>& syndrome,
                                         PeelWorkspace& ws);

}  // namespace surfnet::decoder::reference
