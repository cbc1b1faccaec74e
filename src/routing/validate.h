#pragma once

// Debug invariant validators for the routing layer. route() and
// route_greedy() validate their schedules against the integer program's
// constraints (paper Eqs. (1)-(6)) before returning when SURFNET_CHECKS is
// on. (The LP solver checks the basis it keeps itself, in simplex.cpp; the
// slot loop checks online re-routes with netsim/recovery.h's
// check_reroute_invariants.)
// Tests call the validators directly against deliberately corrupted
// schedules to prove each check fires. A broken invariant
// reports through util/contracts.h (abort by default, ContractViolation
// under the test handler).

#include <vector>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"

namespace surfnet::routing {

/// Validate a routing solution against the integer-program constraints:
///   * bookkeeping: request indices in range, positive code counts,
///     per-request scheduled codes <= requested codes (Eq. (2) bounds),
///     requested_codes matches the request list;
///   * initialization/termination (Eq. (3)): every Support (and, when
///     present, Core) path is a src..dst walk over existing fibers;
///   * server coupling (Eq. (4)): every EC server is a server node lying
///     on both paths, in path order, and the EC count respects the
///     Eq. (6) lower bound floor(path noise / omega);
///   * capacity (Eq. (5)): accumulated storage demand per node and
///     entangled-pair demand per fiber stay within the topology's
///     capacities (with the Raw bonus when single-channel).
void check_schedule_invariants(const netsim::Topology& topology,
                               const std::vector<netsim::Request>& requests,
                               const RoutingParams& params,
                               const netsim::Schedule& schedule);

}  // namespace surfnet::routing
