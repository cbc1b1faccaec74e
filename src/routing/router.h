#pragma once

// The centralized offline scheduler of SurfNet (paper Sec. V-A): build the
// LP relaxation of Eqs. (1)-(6), solve it with the simplex solver, round
// the fractional flows into integral per-code paths by flow decomposition,
// and greedily top the schedule up with any codes the rounding lost.
//
// The first solve starts from a crash basis: one minimum-noise spanning
// flow tree per request and channel (RoutingFormulation::crash_hint), which
// puts the solver next to the optimum instead of at the all-slack basis.
// After that solve and its rounding pass, the router re-solves the LP on
// the residual problem — request limits tightened to the codes still
// unscheduled, capacity right-hand sides to what the committed codes left —
// and rounds again. The problem keeps its shape across these re-solves, so
// one LpSolver serves every solve of a call, and the basis the previous
// solve left warm-starts each of them; only bounds and right-hand sides
// changed, so that basis stays dual feasible and the solver's dual phase
// repairs it in a few pivots. A singular crash basis falls back to the
// all-slack start.
//
// When the first solve has no optimum (infeasible, unbounded or
// iteration-limited), route() counts "route.greedy_fallbacks" and returns
// the standalone greedy scheduler's schedule (routing/greedy.h, paper
// Sec. V-B) instead of executing nothing.
//
// Every call is self-contained: no simplex state crosses route() calls.

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {

struct RouteResult {
  netsim::Schedule schedule;
  LpStatus status = LpStatus::Infeasible;  ///< status of the first solve
  /// Relaxed optimum of the first solve (upper-bounds throughput); 0 when
  /// it has none.
  double lp_objective = 0.0;
  int resolves = 0;           ///< warm re-solves after the first solve
  long cold_iterations = 0;   ///< iterations of the first (crash-started) solve
  long warm_iterations = 0;   ///< iterations across the warm re-solves
  bool greedy_fallback = false;  ///< no LP optimum: the greedy scheduler routed
};

/// Route `requests` over `topology` with LP relaxation + rounding.
/// `params.dual_channel` selects the SurfNet formulation or the Raw
/// baseline formulation. With a metrics sink attached, every solve that
/// ends at the iteration limit counts "route.lp_iteration_limits", and a
/// call that does not fall back to greedy says where its scheduled codes
/// came from: "route.codes_rounded" (the first solve's rounding),
/// "route.codes_resolved" (the warm re-solves' roundings) and
/// "route.codes_topped_up" (the greedy top-up), which sum to
/// Schedule::scheduled_codes(). Throws std::invalid_argument on a negative
/// Request::codes.
RouteResult route(const netsim::Topology& topology,
                  const std::vector<netsim::Request>& requests,
                  const RoutingParams& params, util::Rng& rng);

}  // namespace surfnet::routing
