#include "routing/incremental.h"

#include <algorithm>
#include <cmath>

#include "netsim/channel.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace surfnet::routing {

using netsim::AdmitSource;
using netsim::AdmittedRoute;

IncrementalRouter::IncrementalRouter(const netsim::Topology& topology,
                                     const RoutingParams& params)
    : topology_(&topology), params_(params), tracker_(topology, params) {}

std::optional<AdmittedRoute> IncrementalRouter::admit(int src, int dst,
                                                      int codes) {
  const auto plan = plan_code(routing_topology(), tracker_, params_, src, dst,
                              workspace_);
  if (!plan) return std::nullopt;
  const CodeDemand demand = params_.demand(plan->distance);
  if (!tracker_.feasible(plan->path, plan->path, demand, codes))
    return std::nullopt;
  tracker_.commit(plan->path, plan->path, demand, codes);
  ++stats_.greedy_admits;
  if (params_.sink.metrics)
    params_.sink.metrics->count("route.incremental.greedy");
  AdmittedRoute route;
  route.path = plan->path;
  route.ec_servers = plan->ec_servers;
  route.noise = netsim::path_noise(routing_topology(), plan->path);
  route.codes = codes;
  route.distance = plan->distance;
  route.source = AdmitSource::Greedy;
  return route;
}

void IncrementalRouter::release(const AdmittedRoute& route) {
  // Demand keyed by the distance recorded at admit time: the exact
  // inverse of the matching commit even when the adaptive planner chose a
  // non-default code size or the noise profile changed since.
  tracker_.release(route.path, route.path, params_.demand(route.distance),
                   route.codes);
}

void IncrementalRouter::set_noise_scale(double scale) {
  SURFNET_EXPECTS(scale > 0.0, "noise scale %f must be positive", scale);
  if (scale == noise_scale_) return;
  noise_scale_ = scale;
  ++stats_.profile_changes;
  if (scale != 1.0) {
    // Measured view: fidelity gamma degrades to gamma^scale, i.e. fiber
    // noise mu = ln(1/gamma) scales linearly. Structure and capacities
    // are untouched, so the tracker keeps working on the real topology.
    scaled_ = *topology_;
    for (int e = 0; e < scaled_.num_fibers(); ++e)
      scaled_.fiber(e).fidelity =
          std::pow(topology_->fiber(e).fidelity, scale);
  }
  // scaled_ changed its fidelities in place: the workspace's fiber noise
  // and trees describe the previous profile.
  workspace_.clear();
  if (params_.sink.metrics)
    params_.sink.metrics->count("route.incremental.profile_change");
}

double IncrementalRouter::reoptimize() {
  const CodeDemand demand = params_.demand();
  const double per_node = demand.support_storage + demand.core_storage;
  double storage = 0.0;
  for (int v = 0; v < topology_->num_nodes(); ++v)
    if (topology_->is_switch_or_server(v))
      storage += tracker_.node_remaining(v) / per_node;
  if (demand.pairs == 0.0) return storage;
  double pairs = 0.0;
  for (int e = 0; e < topology_->num_fibers(); ++e)
    pairs += tracker_.fiber_pairs_remaining(e) / demand.pairs;
  return std::min(storage, pairs);
}

}  // namespace surfnet::routing
