#pragma once

// The capacity ledger and the greedy planner every router shares. Each
// router charges a code's Eq. (5) demand (RoutingParams::demand) to one
// CapacityTracker through feasible/commit/release: the LP rounding and its
// greedy top-up (routing/router.h), route_greedy below, the online
// IncrementalRouter and the Purification N baselines, whose messages take
// a pairs-only demand along min_noise_route.
//
// Greedy, capacity-aware scheduling is used three ways:
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

/// The capacity ledger every router charges: the storage each node and the
/// entangled pairs each fiber have left (Eq. (5)). A code's Support part
/// takes demand.support_storage at every transit node of support_path, its
/// Core part demand.core_storage at every transit node of core_path and
/// demand.pairs on every fiber of core_path; a code that rides one path
/// passes it as both, and an empty core_path carries nothing. Paths are
/// simple src..dst walks, as every router's are.
class CapacityTracker {
 public:
  /// Throws std::invalid_argument when RoutingParams::validate does.
  CapacityTracker(const netsim::Topology& topology,
                  const RoutingParams& params);

  /// Capacity epoch: every commit and release bumps it, so equal versions
  /// of one tracker mean equal remaining capacities.
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

  /// Would `codes` codes of `demand` fit on these paths? True exactly when
  /// commit() would leave no capacity negative: a node on both paths
  /// stores both parts, and a Core hop without a fiber never fits.
  bool feasible(const std::vector<int>& core_path,
                const std::vector<int>& support_path,
                const CodeDemand& demand, int codes = 1) const;
  /// Take what feasible() checks.
  void commit(const std::vector<int>& core_path,
              const std::vector<int>& support_path, const CodeDemand& demand,
              int codes = 1);
  /// Return what the matching commit took: its exact inverse. Releasing
  /// codes that were never committed corrupts the ledger (capacities
  /// overflow their configured ceilings).
  void release(const std::vector<int>& core_path,
               const std::vector<int>& support_path, const CodeDemand& demand,
               int codes = 1);

 private:
  /// Subtract `codes` codes of `demand` (a negative count adds them).
  void charge(const std::vector<int>& core_path,
              const std::vector<int>& support_path, const CodeDemand& demand,
              double codes);

  const netsim::Topology* topology_;
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
/// trees grown for one tracker at one version and one demand. The planner
/// rebinds it when handed a different topology or tracker object, a new
/// tracker version or a different demand; buffers are reused, never
/// assumed clean. Identity is by address, so call clear() after changing a
/// bound topology's fidelities in place, and before reusing a workspace
/// with a new object at a bound object's address.
class PlanWorkspace {
 public:
  /// Forget the bound topology, tracker and every tree.
  void clear();

 private:
  friend std::optional<PlannedCode> plan_code(
      const netsim::Topology& topology, const CapacityTracker& tracker,
      const RoutingParams& params, int src, int dst, PlanWorkspace& ws);
  friend bool min_noise_route(const netsim::Topology& topology,
                              const CapacityTracker& tracker,
                              const CodeDemand& demand, int src, int dst,
                              PlanWorkspace& ws, std::vector<int>& path);

  /// Bind to (topology, tracker, demand), dropping what the change
  /// invalidates.
  void bind(const netsim::Topology& topology, const CapacityTracker& tracker,
            const CodeDemand& demand);
  /// Minimum-noise route from root to target under the bound tracker, or
  /// false when target is unreachable. Equals a point-to-point search
  /// from root to target: transit nodes need storage for one code (both
  /// parts), fibers need pairs for one, and only target may be a user or
  /// lack storage.
  bool route(int root, int target, std::vector<int>& path);
  /// Slot of root's tree in dist_/parent_, grown on first use.
  std::size_t tree(int root);
  /// netsim::path_noise over the bound topology, bit for bit, from the
  /// cached fiber noise.
  double path_noise(const std::vector<int>& path) const;

  const netsim::Topology* topology_ = nullptr;
  const CapacityTracker* tracker_ = nullptr;
  std::uint64_t version_ = 0;
  double node_demand_ = 0.0;  ///< both parts of one code of the demand
  double pair_demand_ = 0.0;
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
/// CapacityTracker::feasible.
std::optional<PlannedCode> check_path(const netsim::Topology& topology,
                                      const RoutingParams& params,
                                      const std::vector<int>& path);

/// The minimum-noise route from src to dst on which every transit node
/// has storage and every fiber pairs for one more code of `demand`, into
/// `path`; false when there is none. plan_code's direct route, without
/// the noise thresholds.
bool min_noise_route(const netsim::Topology& topology,
                     const CapacityTracker& tracker, const CodeDemand& demand,
                     int src, int dst, PlanWorkspace& ws,
                     std::vector<int>& path);

/// Find the minimum-noise feasible path for one code of (src, dst), or
/// nullopt when no path satisfies capacity and the noise thresholds. The
/// direct minimum-noise route wins when it passes the thresholds;
/// otherwise the lowest-noise simple detour through one server, or an
/// ordered pair of servers, that passes them.
std::optional<PlannedCode> plan_code(const netsim::Topology& topology,
                                     const CapacityTracker& tracker,
                                     const RoutingParams& params, int src,
                                     int dst, PlanWorkspace& ws);

/// Schedule every request greedily (requests visited in random order, codes
/// one by one). Both paths of a dual-channel request use the same route.
/// Throws std::invalid_argument on a negative Request::codes.
netsim::Schedule route_greedy(const netsim::Topology& topology,
                              const std::vector<netsim::Request>& requests,
                              const RoutingParams& params, util::Rng& rng);

}  // namespace surfnet::routing
