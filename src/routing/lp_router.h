#pragma once

// The centralized offline scheduler of SurfNet (paper Sec. V-A): build the
// LP relaxation of Eqs. (1)-(6), solve it with the simplex solver, round
// the fractional flows into integral per-code paths by flow decomposition,
// and greedily top the schedule up with any codes the rounding lost.
//
// After the first (cold) solve and rounding pass, the router re-solves the
// LP on the residual problem — request limits tightened to the codes still
// unscheduled, capacity right-hand sides to what the committed codes left —
// and rounds again. The problem keeps its shape across these re-solves, so
// the SimplexState saved by the cold solve warm-starts each of them; a warm
// re-solve typically needs a small fraction of the cold iteration count.

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {

struct LpRouteResult {
  netsim::Schedule schedule;
  LpStatus status = LpStatus::Infeasible;
  double lp_objective = 0.0;  ///< relaxed optimum (upper-bounds throughput)
  int resolves = 0;           ///< warm re-solves after the cold solve
  long cold_iterations = 0;   ///< simplex iterations of the first solve
  long warm_iterations = 0;   ///< total iterations across warm re-solves
};

/// Route with LP relaxation + rounding. `params.dual_channel` selects the
/// SurfNet formulation or the Raw baseline formulation.
LpRouteResult route_lp(const netsim::Topology& topology,
                       const std::vector<netsim::Request>& requests,
                       const RoutingParams& params, util::Rng& rng);

/// As above, but the simplex basis lives in the caller's `state`: a valid
/// state warm-starts the first solve (route() hands back the basis of the
/// previous solve over the same formulation shape), and
/// the state left behind warm-starts the caller's next solve. Pass a
/// default-constructed state for a cold solve.
LpRouteResult route_lp(const netsim::Topology& topology,
                       const std::vector<netsim::Request>& requests,
                       const RoutingParams& params, util::Rng& rng,
                       SimplexState& state);

}  // namespace surfnet::routing
