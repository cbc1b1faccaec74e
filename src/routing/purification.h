#pragma once

// Router for the paper's "Purification N = 1, 2, 9" benchmark networks
// (Sec. VI-B): mainstream entanglement-based networks that teleport each
// message qubit hop by hop and spend N extra entangled pairs per fiber on
// recurrence purification. Scheduling greedily routes each message along
// the maximum-fidelity (minimum-noise) path while the fibers' pairs last:
// each message charges (1 + N) pairs on every fiber it crosses, and no
// storage, to the capacity ledger the other routers share
// (routing/greedy.h), and takes the planner's min_noise_route.

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "util/rng.h"

namespace surfnet::routing {

struct PurificationParams {
  int extra_pairs = 1;  ///< the paper's N
};

/// Throws std::invalid_argument on a negative extra_pairs or
/// Request::codes.
netsim::Schedule route_purification(
    const netsim::Topology& topology,
    const std::vector<netsim::Request>& requests,
    const PurificationParams& params, util::Rng& rng);

}  // namespace surfnet::routing
