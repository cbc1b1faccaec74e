#pragma once

// Greedy, capacity-aware scheduling used three ways:
//   * as the rounding top-up after the LP relaxation (paper Sec. V-A uses
//     "a relaxed Linear Programming version with rounding"),
//   * as the standalone hierarchical scheduler (paper Sec. V-B notes
//     SurfNet can operate without the centralized protocol), and
//   * as the executor for the Raw baseline when configured single-channel.
//
// One code at a time, the scheduler finds the minimum-noise path between
// the request's users through switches/servers with remaining storage (and,
// on the dual channel, remaining entangled pairs), schedules error
// correction at as many on-path servers as the noise budget allows, checks
// the Eq. (6) thresholds, and commits the resources.
//
// Planning reads minimum-noise trees: one from the request's source and
// one from each server, which answer the direct route and every
// server-detour leg. A PlanWorkspace keeps those trees for as long as the
// CapacityTracker's version holds, so consecutive plans over an unchanged
// tracker (a blocked arrival commits nothing) share them.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::routing {

/// Mutable remaining-resource view of a topology.
class CapacityTracker {
 public:
  CapacityTracker(const netsim::Topology& topology,
                  const RoutingParams& params);

  /// Capacity epoch: every commit, release, commit_split and
  /// release_split bumps it, so equal versions of one tracker mean equal
  /// remaining capacities.
  std::uint64_t version() const { return version_; }

  double node_remaining(int node) const {
    SURFNET_EXPECTS(node >= 0 &&
                    static_cast<std::size_t>(node) < node_capacity_.size());
    return node_capacity_[static_cast<std::size_t>(node)];
  }
  double fiber_pairs_remaining(int fiber) const {
    SURFNET_EXPECTS(fiber >= 0 &&
                    static_cast<std::size_t>(fiber) < fiber_pairs_.size());
    return fiber_pairs_[static_cast<std::size_t>(fiber)];
  }

  /// Can one more code travel this path? (storage at every intermediate
  /// node, pairs on every fiber when dual-channel). The overloads with
  /// explicit demands serve codes of non-default distance.
  bool path_feasible(const std::vector<int>& path) const;
  bool path_feasible(const std::vector<int>& path, double node_demand,
                     double pair_demand) const;

  /// Commit one code's resources along the path.
  void commit(const std::vector<int>& path);
  void commit(const std::vector<int>& path, double node_demand,
              double pair_demand);

  /// Return one code's resources: the exact inverse of the matching
  /// commit. The dynamic-traffic path calls this when an admitted request
  /// departs; releasing a path that was never committed corrupts the
  /// tracker (capacities overflow their configured ceilings).
  void release(const std::vector<int>& path);
  void release(const std::vector<int>& path, double node_demand,
               double pair_demand);

  /// Variants for codes whose Core and Support parts take different routes
  /// (LP rounding): Core qubits consume storage and pairs along core_path,
  /// Support qubits consume storage along support_path. core_path may be
  /// empty (Raw).
  bool split_feasible(const std::vector<int>& core_path,
                      const std::vector<int>& support_path) const;
  void commit_split(const std::vector<int>& core_path,
                    const std::vector<int>& support_path);
  void release_split(const std::vector<int>& core_path,
                     const std::vector<int>& support_path);

 private:
  const netsim::Topology* topology_;
  RoutingParams params_;
  std::vector<double> node_capacity_;
  std::vector<double> fiber_pairs_;
  std::uint64_t version_ = 0;
};

/// Result of planning a single code.
struct PlannedCode {
  std::vector<int> path;        ///< node sequence src..dst
  std::vector<int> ec_servers;  ///< chosen EC servers, in path order
  /// Code distance chosen for this code (0 = the configuration default;
  /// set when RoutingParams::adaptive_code_distance is enabled).
  int distance = 0;
};

/// Reusable planner state, following the decoder::DecodeWorkspace idiom:
/// one topology's fiber noise and server list, plus the minimum-noise
/// trees grown for one tracker at one version. plan_code rebinds it when
/// handed a different topology or tracker object, a new tracker version
/// or different per-code demands; buffers are reused, never assumed
/// clean. Identity is by address, so call clear() after changing a bound
/// topology's fidelities in place, and before reusing a workspace with a
/// new object at a bound object's address.
class PlanWorkspace {
 public:
  /// Forget the bound topology, tracker and every tree.
  void clear();

 private:
  friend std::optional<PlannedCode> plan_code(
      const netsim::Topology& topology, const CapacityTracker& tracker,
      const RoutingParams& params, int src, int dst, PlanWorkspace& ws);

  /// Bind to (topology, tracker, demands of params), dropping what the
  /// change invalidates.
  void bind(const netsim::Topology& topology, const CapacityTracker& tracker,
            const RoutingParams& params);
  /// Minimum-noise route from root to target under the bound tracker, or
  /// false when target is unreachable. Equals a point-to-point search
  /// from root to target: transit nodes need storage for one code,
  /// fibers (dual channel) need pairs for one, and only target may be a
  /// user or lack storage.
  bool route(int root, int target, std::vector<int>& path);
  /// Slot of root's tree in dist_/parent_, grown on first use.
  std::size_t tree(int root);
  /// netsim::path_noise over the bound topology, bit for bit, from the
  /// cached fiber noise.
  double path_noise(const std::vector<int>& path) const;

  const netsim::Topology* topology_ = nullptr;
  const CapacityTracker* tracker_ = nullptr;
  std::uint64_t version_ = 0;
  double node_demand_ = 0.0;
  double pair_demand_ = 0.0;
  bool dual_channel_ = false;
  std::vector<double> fiber_noise_;  ///< per fiber of topology_
  std::vector<int> servers_;         ///< topology_->servers()
  std::vector<int> tree_slot_;       ///< per root node; -1 = not grown
  std::size_t trees_ = 0;            ///< trees grown at this binding
  std::vector<double> dist_;         ///< trees_ x num_nodes noise labels
  std::vector<int> parent_;          ///< trees_ x num_nodes, -1 = none
  std::vector<std::pair<double, int>> heap_;  ///< Dijkstra frontier
};

/// Distance selection for the adaptive-code-size extension: the residual
/// noise a route leaves after its corrections decides how much protection
/// the code needs.
int adaptive_distance(double residual_noise);

/// Threshold-check one concrete path against the normalized Eq. (6)
/// bounds: schedules as many EC stops as the noise budget allows and
/// returns the planned code, or nullopt when the residual noise exceeds
/// the thresholds. Capacity is NOT checked here — pair with
/// CapacityTracker::path_feasible.
std::optional<PlannedCode> check_path(const netsim::Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path);

/// Find the minimum-noise feasible path for one code of (src, dst), or
/// nullopt when no path satisfies capacity and the noise thresholds. The
/// direct minimum-noise route wins when it passes the thresholds;
/// otherwise the lowest-noise simple detour through one server, or an
/// ordered pair of servers, that passes them.
std::optional<PlannedCode> plan_code(const netsim::Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst, PlanWorkspace& ws);

/// As above with a workspace local to the call.
std::optional<PlannedCode> plan_code(const netsim::Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst);

/// Schedule every request greedily (requests visited in random order, codes
/// one by one). Both paths of a dual-channel request use the same route.
netsim::Schedule route_greedy(const netsim::Topology& topology,
                              const std::vector<netsim::Request>& requests,
                              const RoutingParams& params, util::Rng& rng);

}  // namespace surfnet::routing
