#include "routing/purification.h"

#include <stdexcept>

#include "routing/greedy.h"

namespace surfnet::routing {

using netsim::Request;
using netsim::Schedule;
using netsim::Topology;

Schedule route_purification(const Topology& topology,
                            const std::vector<Request>& requests,
                            const PurificationParams& params,
                            util::Rng& rng) {
  if (params.extra_pairs < 0)
    throw std::invalid_argument(
        "route_purification: extra_pairs must be >= 0");
  Schedule schedule;
  schedule.requested_codes = netsim::requested_codes(requests);

  // A message stores nothing in transit; each hop takes its teleportation
  // pair and N purification pairs.
  CapacityTracker tracker(topology, RoutingParams{});
  const CodeDemand demand{0.0, 0.0, 1.0 + params.extra_pairs};
  PlanWorkspace ws;
  std::vector<int> path;

  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  for (std::size_t k : order) {
    const Request& req = requests[k];
    for (int code = 0; code < req.codes; ++code) {
      if (!min_noise_route(topology, tracker, demand, req.src, req.dst, ws,
                           path))
        break;
      tracker.commit(path, path, demand);
      // The teleportation path, kept as the Support path too for plan
      // validation symmetry.
      schedule.add_code(static_cast<int>(k), path, path, {});
    }
  }
  return schedule;
}

}  // namespace surfnet::routing
