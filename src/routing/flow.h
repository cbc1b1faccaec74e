#pragma once

// Flow decomposition for the batch LP router (routing/lp_router.h):
// strip a relaxed per-edge flow vector into src->dst paths, then allocate
// an integral code count across them.

#include <vector>

#include "routing/formulation.h"

namespace surfnet::routing {

/// A flow-carrying path extracted from a relaxed LP solution.
struct FlowPath {
  std::vector<int> nodes;
  double weight = 0.0;  ///< codes carried (fractional)
};

/// BFS-based path stripping: repeatedly find any src->dst path through
/// edges with positive residual flow, strip its bottleneck. BFS guarantees
/// termination even when the LP solution contains flow cycles (those are
/// simply never reached and ignored). `flow` is indexed by the
/// formulation's directed-edge ids and consumed by value.
std::vector<FlowPath> decompose_flow(const RoutingFormulation& formulation,
                                     int num_nodes, std::vector<double> flow,
                                     int src, int dst);

/// Largest-remainder allocation of `total` integral codes to paths
/// proportionally to their fractional weights.
std::vector<int> allocate_codes(const std::vector<FlowPath>& paths,
                                int total);

}  // namespace surfnet::routing
