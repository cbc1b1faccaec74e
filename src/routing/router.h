#pragma once

// Unified routing facade: one entry point over the LP relaxation router
// (routing/lp_router.h) and the greedy hierarchical scheduler
// (routing/greedy.h), returning one RouteResult.
//
// route() with RouteStrategy::Auto reproduces the historical core-layer
// seam exactly: solve the LP relaxation; when it cannot be solved
// (infeasible, unbounded, or iteration-limited), count a
// "route.greedy_fallbacks" metric and fall back to the standalone greedy
// scheduler instead of executing nothing. Lp and Greedy force one arm.
//
// Every call is self-contained: route_lp crash-starts its first solve from
// the formulation's flow trees and warm-starts its own re-solves, so no
// simplex state crosses route() calls.
//
// route_lp() and route_greedy() remain available as the underlying
// implementations for one more release; new call sites should prefer
// route().

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/lp_router.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {

enum class RouteStrategy : std::uint8_t {
  Auto,    ///< LP first, greedy fallback when the LP cannot be solved
  Lp,      ///< LP relaxation + rounding only
  Greedy,  ///< standalone greedy hierarchical scheduler only
};

struct RouteOptions {
  RouteStrategy strategy = RouteStrategy::Auto;
};

struct RouteResult {
  netsim::Schedule schedule;
  LpStatus status = LpStatus::Infeasible;
  double lp_objective = 0.0;  ///< relaxed optimum (0 on the greedy arm)
  int resolves = 0;           ///< warm re-solves after the first solve
  long cold_iterations = 0;   ///< iterations of the first (crash-started) solve
  long warm_iterations = 0;   ///< iterations across the warm re-solves
  bool used_lp = false;           ///< the schedule came from the LP arm
  bool greedy_fallback = false;   ///< Auto fell back to greedy
};

/// Route `requests` over `topology` with the selected strategy.
RouteResult route(const netsim::Topology& topology,
                  const std::vector<netsim::Request>& requests,
                  const RoutingParams& params, util::Rng& rng,
                  const RouteOptions& options = {});

}  // namespace surfnet::routing
