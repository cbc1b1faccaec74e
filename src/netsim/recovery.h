#pragma once

// Recovery policy of the online execution (paper Sec. V-B): what the
// control plane does when a route breaks or starves mid-run.
//
//   * Local recovery — replace the remainder of a route to the *next*
//     designated node with a detour over live fibers/nodes (the paper's
//     "recovery path leading to the next designated node"). The detour
//     keeps the scheduled EC servers, so it still satisfies the structural
//     routing constraints (Eqs. (3)-(4)); under SURFNET_CHECKS the slot
//     loop runs check_reroute_invariants after every successful local
//     reroute. When no live detour exists the code holds in place and
//     tries again next slot.
//   * Per-code timeout budget — a code still in flight after
//     code_timeout_slots is abandoned as a timeout, freeing its request
//     slot for the next code instead of starving the whole run against
//     max_slots.
//
// A failed entanglement swap wastes its pairs, and the code tries the
// segment again the next slot.
//
// The default-constructed policy: local reroutes on, no per-code budget.

#include <vector>

#include "netsim/faults.h"
#include "netsim/topology.h"

namespace surfnet::netsim {

struct RecoveryPolicy {
  /// Replace a broken route with a local detour to the next designated
  /// node (false = hold the qubits in error-mitigation circuits until the
  /// route heals).
  bool local_reroute = true;
  /// Slots one code may stay in flight before it is abandoned as a
  /// timeout; 0 = bounded only by the run-wide max_slots. A per-code
  /// budget subsumes max_slots for delivery accounting: a starved code
  /// times out individually instead of pinning its request to the end of
  /// the run.
  int code_timeout_slots = 0;

  /// Everything off: broken routes hold in place (the paper's
  /// error-mitigation-circuit fallback).
  static RecoveryPolicy disabled();
  /// The chaos-bench posture: local reroutes and a per-code budget of
  /// 1500 slots.
  static RecoveryPolicy aggressive();
};

/// Local recovery (paper Sec. V-B): splice a detour over live fibers and
/// nodes into `path`, replacing the stretch from `pos` to `target_node`
/// (which must appear in path[pos..]). Interior detour nodes are
/// switches/servers; only the target may be a user. Returns false when no
/// live detour exists (path is left unchanged).
bool local_reroute(const Topology& topology, const FaultInjector& injector,
                   int slot, std::vector<int>& path, int pos,
                   int target_node);

/// First index i >= from with path[i] == node, or -1.
int find_on_path(const std::vector<int>& path, int node, int from);

/// Validate one channel path after a local reroute against the structural
/// routing constraints: the walk still runs over existing in-range fibers
/// (Eq. (3) structure) and visits the barrier nodes the code has not
/// passed — remaining EC servers in order, destination last — from
/// position `pos` on (Eqs. (4) coupling and (3) termination). Interior
/// nodes past `pos` must be switches or servers; only the final barrier
/// may be a user. A broken invariant reports through util/contracts.h.
void check_reroute_invariants(const Topology& topology,
                              const std::vector<int>& path, int pos,
                              const std::vector<int>& barriers);

}  // namespace surfnet::netsim
