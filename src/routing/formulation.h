#pragma once

// LP formulation of the SurfNet routing protocol (paper Sec. V-A,
// Eqs. (1)-(6)). Variables per request k:
//   Y_k      in [0, i_k] : surface codes scheduled,
//   a^k_e    >= 0        : Core qubits routed through directed edge e,
//   b^k_e    >= 0        : Support qubits routed through directed edge e,
//   x^k_r    in [0, i_k] : error corrections scheduled at server r;
// objective max sum_k Y_k; constraints: initialization/termination (3),
// conservation and server coupling (4), storage and entanglement capacity
// (5), and the normalized noise thresholds (6), where the Core noise is
// halved to account for purification and each correction subtracts omega.
//
// With dual_channel = false the same machinery produces the paper's "Raw"
// baseline: no Core variables, every qubit on the plain channel, EC still
// available in servers, and switches get a capacity bonus because they no
// longer prepare entanglement.
//
// A formulation reads each fiber's noise (Topology::fiber_noise, one
// std::log) once, when it is built, into its own table: the flow penalties,
// the Eq. (6) rows and crash_hint() all use that table, so a fiber changed
// on the topology afterwards is not seen. It sizes the problem's arrays
// before emitting into them.

#include <span>
#include <utility>
#include <vector>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "obs/sink.h"
#include "routing/simplex.h"
#include "util/contracts.h"

namespace surfnet::routing {

/// Storage multiplier of the Raw baseline: its switches hold more qubits
/// because they no longer prepare entanglement.
inline constexpr double kRawCapacityBonus = 1.2;

/// Secondary objective weight: the LP maximizes sum_k Y_k minus this
/// weight times the total noise carried by all flows, so that among
/// maximum-throughput schedules the minimum-noise routing is chosen.
/// Small enough never to sacrifice a whole code for noise.
inline constexpr double kNoiseObjectiveWeight = 0.02;

/// One code's Eq. (5) demand on the capacity ledger (CapacityTracker):
/// storage at every transit node of the paths its two parts travel, and
/// entangled pairs on every fiber of its Core path.
struct CodeDemand {
  double support_storage = 0.0;  ///< per transit node of the Support path
  double core_storage = 0.0;     ///< per transit node of the Core path
  double pairs = 0.0;            ///< per fiber of the Core path
};

struct RoutingParams {
  int core_qubits = 7;      ///< n (distance-4 code, paper example)
  int support_qubits = 18;  ///< m
  double ec_reduction = 0.12;         ///< omega
  double core_noise_threshold = 0.16; ///< W_c
  double total_noise_threshold = 0.22;  ///< W
  bool dual_channel = true;             ///< false = Raw baseline
  /// Adaptive code sizes based on quality of service (paper Sec. VI-C
  /// future direction), supported by the greedy scheduler: clean routes
  /// use a compact distance-3 code, noisy routes escalate to distance 5,
  /// and the noise thresholds scale with the code's error tolerance.
  bool adaptive_code_distance = false;
  /// Observability handle: LP solves report iterations / refactorizations /
  /// warm-start hits into it. Null (the default) disables instrumentation.
  obs::Sink sink{};

  /// Core qubits of the distance-d cross: 2d - 1.
  static int core_qubits_for(int distance) { return 2 * distance - 1; }
  /// Data qubits of the distance-d planar code: d^2 + (d-1)^2.
  static int total_qubits_for(int distance) {
    return distance * distance + (distance - 1) * (distance - 1);
  }

  int total_qubits() const { return core_qubits + support_qubits; }
  /// Eq. (5) demand of one code of `distance` (0 = the configured code):
  /// its m Support and n Core qubits of storage where each part travels
  /// and n pairs per Core fiber. The Raw baseline carries all n + m
  /// qubits on the Support path and takes no pairs.
  CodeDemand demand(int distance = 0) const;
  /// Corrections the Eq. (6) lower bound allows on a route of noise `mu`:
  /// floor(mu / omega), or 0 when omega is 0.
  int max_corrections(double mu) const;
  /// Throws std::invalid_argument naming the first field outside its
  /// range: ec_reduction, core_noise_threshold and total_noise_threshold
  /// must be finite and >= 0. RoutingFormulation and CapacityTracker call
  /// it, so every router that takes these parameters does.
  void validate() const;
  /// Multiplier on every node's storage capacity (Eq. (5)).
  double storage_scale() const {
    return dual_channel ? 1.0 : kRawCapacityBonus;
  }
};

class RoutingFormulation {
 public:
  struct VarIndex {
    int y = -1;
    std::vector<int> a;  ///< per directed edge; -1 = pruned/absent
    std::vector<int> b;  ///< per directed edge; -1 = pruned
    std::vector<int> x;  ///< per server (order of Topology::servers())
  };

  RoutingFormulation(const netsim::Topology& topology,
                     const std::vector<netsim::Request>& requests,
                     const RoutingParams& params);

  const LpProblem& problem() const { return lp_; }
  const RoutingParams& params() const { return params_; }
  const std::vector<int>& servers() const { return servers_; }

  /// Warm re-solve support: tighten request k's schedulable codes or a
  /// shared capacity to its residual amount. Only bounds and right-hand
  /// sides change, so the problem keeps its shape and the LpSolver that
  /// solved it re-solves from the basis it kept.
  void set_request_limit(int k, double codes) {
    SURFNET_EXPECTS(k >= 0 && static_cast<std::size_t>(k) < vars_.size());
    lp_.set_upper_bound(vars_[static_cast<std::size_t>(k)].y, codes);
  }
  void set_storage_capacity(int node, double capacity);
  void set_entanglement_capacity(int fiber, double capacity);

  /// Row of node's Eq. (5) storage constraint, or -1 when the node has
  /// no storage row (no routable in-edges).
  int storage_row(int node) const {
    SURFNET_EXPECTS(node >= 0 &&
                    static_cast<std::size_t>(node) < storage_row_.size());
    return storage_row_[static_cast<std::size_t>(node)];
  }
  /// Row of the fiber's entanglement-capacity constraint, or -1.
  int entanglement_row(int fiber) const {
    SURFNET_EXPECTS(fiber >= 0 && static_cast<std::size_t>(fiber) <
                                      entanglement_row_.size());
    return entanglement_row_[static_cast<std::size_t>(fiber)];
  }

  /// Crash-start hint for the first solve (LpSolver::crash): the
  /// (column, row) pairs of one spanning flow tree per request. Per
  /// request, a Dijkstra from the source over the arcs that have variables,
  /// with fiber noise — the arc cost of the secondary objective — as the
  /// length, relaxing arcs in directed-edge order and popping by (noise,
  /// node). Every reached node other than the source gets its tree in-arc
  /// on its own row — its conservation row, or the in(dst) flow equation
  /// for the destination — on each channel, and every reached server gets
  /// its EC variable on its coupling row (the Core row when dual-channel).
  /// The noise is the formulation's table, read at construction.
  std::vector<std::pair<int, int>> crash_hint() const;

  int num_requests() const { return static_cast<int>(vars_.size()); }
  const VarIndex& vars(int k) const {
    SURFNET_EXPECTS(k >= 0 && static_cast<std::size_t>(k) < vars_.size());
    return vars_[static_cast<std::size_t>(k)];
  }

  /// Directed edges: 2 per fiber; even ids run a->b, odd ids b->a.
  int num_directed_edges() const { return 2 * topology_->num_fibers(); }
  int edge_fiber(int de) const { return de / 2; }
  int edge_tail(int de) const;
  int edge_head(int de) const;
  /// Directed edges into / out of `node`, in ascending id; built once.
  std::span<const int> in_arcs(int node) const { return arcs(in_arcs_, node); }
  std::span<const int> out_arcs(int node) const {
    return arcs(out_arcs_, node);
  }

 private:
  /// One request's source and the rows build() emitted for its flows,
  /// recorded as they are emitted; -1 = no row.
  struct RowIndex {
    int src = -1;               ///< the request's source node
    std::vector<int> a_node;    ///< per node: Core conservation / in(dst) row
    std::vector<int> b_node;    ///< per node: same for the Support channel
    std::vector<int> coupling;  ///< per server: coupling row that takes x
  };

  const netsim::Topology* topology_;
  RoutingParams params_;
  std::vector<int> servers_;
  std::vector<double> fiber_noise_;  ///< Topology::fiber_noise at build()
  std::vector<VarIndex> vars_;
  std::vector<RowIndex> rows_;
  std::vector<int> storage_row_;       ///< per node; -1 = no row
  std::vector<int> entanglement_row_;  ///< per fiber; -1 = no row
  // Per-node arc lists in compressed form: node v's in-arcs are
  // in_arcs_[arc_start_[v] .. arc_start_[v + 1]), its out-arcs the same
  // range of out_arcs_ (one of each per incident fiber).
  std::vector<int> arc_start_, in_arcs_, out_arcs_;
  LpProblem lp_;

  std::span<const int> arcs(const std::vector<int>& list, int node) const {
    SURFNET_EXPECTS(node >= 0 &&
                    static_cast<std::size_t>(node) + 1 < arc_start_.size());
    const auto begin =
        static_cast<std::size_t>(arc_start_[static_cast<std::size_t>(node)]);
    const auto end = static_cast<std::size_t>(
        arc_start_[static_cast<std::size_t>(node) + 1]);
    return {list.data() + begin, end - begin};
  }
  void build_arc_lists();
  void build(const std::vector<netsim::Request>& requests);
};

}  // namespace surfnet::routing
