#include "routing/router.h"

#include <utility>

#include "obs/metrics.h"
#include "routing/greedy.h"

namespace surfnet::routing {

RouteResult route(const netsim::Topology& topology,
                  const std::vector<netsim::Request>& requests,
                  const RoutingParams& params, util::Rng& rng,
                  const RouteOptions& options) {
  RouteResult result;

  if (options.strategy == RouteStrategy::Greedy) {
    result.schedule = route_greedy(topology, requests, params, rng);
    return result;
  }

  LpRouteResult lp = route_lp(topology, requests, params, rng);
  result.status = lp.status;
  result.lp_objective = lp.lp_objective;
  result.resolves = lp.resolves;
  result.cold_iterations = lp.cold_iterations;
  result.warm_iterations = lp.warm_iterations;

  if (lp.status == LpStatus::Optimal ||
      options.strategy == RouteStrategy::Lp) {
    // route_lp already degrades to a greedy schedule internally when the
    // LP cannot be solved, so the forced-Lp arm still returns a schedule.
    result.schedule = std::move(lp.schedule);
    result.used_lp = true;
    return result;
  }

  // Auto fallback — the historical core-layer seam, preserved bitwise:
  // count the fallback and route greedily with the same rng stream.
  if (params.sink.metrics)
    params.sink.metrics->count("route.greedy_fallbacks");
  result.greedy_fallback = true;
  result.schedule = route_greedy(topology, requests, params, rng);
  return result;
}

}  // namespace surfnet::routing
