#pragma once

// Incremental routing for the dynamic-traffic engine.
//
// The offline LP router (routing/router.h) answers "route this batch";
// the IncrementalRouter answers a stream of single-request deltas from
// netsim::run_traffic: admit one request now, release one later, with the
// network state carried across deltas instead of rebuilt per call.
//
// Admission is greedy-only, the paper's per-code hierarchical scheduler
// (Sec. V-B): admit() runs plan_code over the live CapacityTracker, checks
// that the plan's codes fit (feasible) and commits them. No LP is
// solved on the online path; the LP stays where the paper puts it, in
// batch planning (Sec. V-A). The router owns one PlanWorkspace, so
// arrivals that meet an unchanged tracker — every arrival after a blocked
// one, since a block commits nothing — reuse the minimum-noise trees the
// previous plan grew. Admits are counted as "route.incremental.greedy".
//
// reoptimize() reports the residual headroom the tracker already knows,
// in O(nodes + fibers): the smaller of the codes the switches' and
// servers' remaining storage could hold and, on the dual channel, the
// codes the fibers' remaining pairs could carry.
//
// Adaptive code selection. With RoutingParams::adaptive_code_distance the
// planner picks a distance (3/4/5) per route from its measured residual
// noise; the router then commits capacity for codes of exactly that
// distance — RoutingParams::demand(d) — and records the distance on the
// AdmittedRoute so release() returns exactly what admit() took even if
// the noise profile changed in between.
//
// Noise profile changes. set_noise_scale (the RouteProvider seam driven
// by the traffic engine's fidelity-degradation windows) re-measures every
// fiber as fidelity^scale. Planning and the reported route noise read the
// scaled view; capacity bookkeeping is unaffected. The scaled view keeps
// one address while its fidelities change, so a scale change clears the
// planner workspace.

#include <optional>
#include <vector>

#include "netsim/workload.h"
#include "routing/greedy.h"

namespace surfnet::routing {

/// netsim::RouteProvider over a live CapacityTracker with greedy-only
/// admission. Single-threaded; one instance per traffic stream.
class IncrementalRouter final : public netsim::RouteProvider {
 public:
  IncrementalRouter(const netsim::Topology& topology,
                    const RoutingParams& params);

  std::optional<netsim::AdmittedRoute> admit(int src, int dst,
                                             int codes) override;
  void release(const netsim::AdmittedRoute& route) override;
  double reoptimize() override;
  void set_noise_scale(double scale) override;

  const CapacityTracker& tracker() const { return tracker_; }
  double noise_scale() const { return noise_scale_; }

  /// Cumulative statistics for benchmarks and tests. Only greedy_admits
  /// and profile_changes move. The other fields counted the LP assist
  /// this router no longer has and always read 0; they stay because the
  /// repository benchmark (perfbench/) reads every field.
  struct Stats {
    long long greedy_admits = 0;
    long long warm_admits = 0;
    long long cold_admits = 0;
    long long lp_rejects = 0;
    long long saturation_skips = 0;
    long long infeasible_skips = 0;
    int profile_changes = 0;     ///< set_noise_scale transitions seen
    int cold_solves = 0;
    int warm_solves = 0;
    long cold_iterations = 0;
    long warm_iterations = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// The topology as currently measured: the scaled copy while a
  /// degradation window is open, the real one otherwise.
  const netsim::Topology& routing_topology() const {
    return noise_scale_ == 1.0 ? *topology_ : scaled_;
  }
  const netsim::Topology* topology_;
  RoutingParams params_;
  CapacityTracker tracker_;
  PlanWorkspace workspace_;
  /// Measured view under the current noise scale (valid when
  /// noise_scale_ != 1). Same structure and capacities as *topology_,
  /// only fiber fidelities differ — the tracker stays valid across changes.
  netsim::Topology scaled_;
  double noise_scale_ = 1.0;
  Stats stats_;
};

}  // namespace surfnet::routing
