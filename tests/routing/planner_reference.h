#pragma once

// Reference planner for the planner oracle test: point-to-point
// minimum-noise searches, one per route (planner_reference.cpp).

#include <optional>
#include <vector>

#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/greedy.h"

namespace surfnet::routing::reference {

/// Dijkstra from src to dst over nodes with storage for one code and
/// (dual channel) fibers with pairs for one; only dst may be a user or
/// lack storage.
std::optional<std::vector<int>> min_noise_path(const netsim::Topology& topology,
                                               const CapacityTracker& tracker,
                                               const RoutingParams& params,
                                               int src, int dst);

/// plan_code's contract, one point-to-point search per route.
std::optional<PlannedCode> plan_code(const netsim::Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst);

}  // namespace surfnet::routing::reference
