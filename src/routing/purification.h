#pragma once

// Router for the paper's "Purification N = 1, 2, 9" benchmark networks
// (Sec. VI-B): mainstream entanglement-based networks that teleport each
// message qubit hop by hop and spend N extra entangled pairs per fiber on
// recurrence purification. Scheduling greedily routes each message along
// the maximum-fidelity (minimum-noise) path while per-fiber pair budgets
// last; each message consumes (1 + N) pairs on every fiber it crosses.

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
