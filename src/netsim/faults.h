#pragma once

// Deterministic fault injection for the online-execution simulators.
//
// A FaultPlan describes *what can go wrong* during a run: a scripted list
// of events pinned to exact slots plus stochastic per-slot fault processes.
// A FaultInjector executes the plan against one simulation: it owns the
// down/degraded state of every fiber and node, draws stochastic faults from
// the simulation's RNG in a fixed order (so a (seed, plan) pair replays to
// a bitwise-identical run on any thread count), and reports every injected
// fault through the obs::Sink (fiber_down / node_down / degraded events
// and "sim.*" counters).
//
// Fault kinds (all windows are half-open [slot, until_slot)):
//   * FiberCut                  — the fiber carries no traffic; prepared
//                                 pairs keep accumulating (the sources sit
//                                 at the endpoints, the cut is the fiber);
//   * NodeOutage                — a switch/server drops out: nothing moves
//                                 through it and corrections at it wait;
//   * EntanglementDegradation   — the fiber's pair-generation rate is
//                                 multiplied by `magnitude` in [0, 1].
//
// The stochastic processes reproduce — and extend — the paper's Sec. V-B
// failure model: FaultPlan::fiber_noise is that model, independent
// per-fiber cuts. Other plans set FaultPlan::scripted and
// FaultPlan::stochastic directly.

#include <cstdint>
#include <string_view>
#include <vector>

#include "netsim/topology.h"
#include "obs/sink.h"
#include "util/rng.h"

namespace surfnet::netsim {

enum class FaultKind : std::uint8_t {
  FiberCut,
  NodeOutage,
  EntanglementDegradation,
};

std::string_view to_string(FaultKind kind);

/// One scripted fault, fired when the simulation reaches `slot`.
struct FaultEvent {
  FaultKind kind = FaultKind::FiberCut;
  int slot = 0;      ///< simulation slot the fault starts (0-based)
  int target = -1;   ///< fiber id (cut/degradation), node id (outage)
  int duration = 1;  ///< slots the condition lasts (>= 1)
  double magnitude = 1.0;  ///< degradation rate multiplier in [0, 1]
};

/// Per-slot stochastic fault processes. A rate of 0 disables a process
/// entirely — it then consumes no random variates, which preserves the
/// RNG sequence of runs that never used it.
struct StochasticFaults {
  /// Independent per-fiber cuts — the Sec. V-B model: every live fiber
  /// crashes with this probability each slot.
  double fiber_cut_rate = 0.0;
  int fiber_cut_duration = 20;

  /// Correlated multi-link failures: with this per-slot probability, one
  /// uniformly chosen fiber goes down together with up to
  /// `correlated_group_size - 1` fibers sharing an endpoint with it
  /// (a conduit cut taking out a whole bundle).
  double correlated_cut_rate = 0.0;
  int correlated_group_size = 3;
  int correlated_cut_duration = 20;

  /// Switch/server outages: every live non-user node fails with this
  /// probability each slot. User endpoints never fail (a dead endpoint
  /// would make its requests permanently unroutable).
  double node_outage_rate = 0.0;
  int node_outage_duration = 20;

  /// Entanglement-source degradation: with this per-slot probability one
  /// uniformly chosen fiber generates pairs at `degradation_factor` times
  /// its configured rate for the window.
  double degradation_rate = 0.0;
  double degradation_factor = 0.25;
  int degradation_duration = 20;

  bool any() const {
    return fiber_cut_rate > 0.0 || correlated_cut_rate > 0.0 ||
           node_outage_rate > 0.0 || degradation_rate > 0.0;
  }
};

/// A complete fault schedule: scripted events plus stochastic processes.
struct FaultPlan {
  std::vector<FaultEvent> scripted;
  StochasticFaults stochastic;

  bool empty() const { return scripted.empty() && !stochastic.any(); }

  /// The paper's Sec. V-B failure model as a plan: independent per-fiber
  /// cuts at `rate` lasting `duration` slots.
  static FaultPlan fiber_noise(double rate, int duration);
};

/// Executes one FaultPlan against one simulation run. All mutation happens
/// in begin_slot (called once per slot, before any code moves); the query
/// methods are pure reads, so the simulator may interleave them freely.
class FaultInjector {
 public:
  /// Validates the plan (targets in range, positive durations, magnitudes
  /// in [0, 1]); throws std::invalid_argument on a malformed plan.
  FaultInjector(const Topology& topology, const FaultPlan& plan);

  /// Apply scripted events scheduled for `slot` and sample the stochastic
  /// processes. Slots must be visited in increasing order from 0, each
  /// once. A window whose end would pass INT_MAX lasts for the rest of
  /// the run.
  void begin_slot(int slot, util::Rng& rng, const obs::Sink& sink);

  bool fiber_down(int fiber, int slot) const {
    return slot < fiber_down_until_[static_cast<std::size_t>(fiber)];
  }
  bool node_down(int node, int slot) const {
    return slot < node_down_until_[static_cast<std::size_t>(node)];
  }
  /// Pair-generation rate multiplier for a fiber (1.0 when healthy).
  double entanglement_factor(int fiber, int slot) const {
    return slot < degrade_until_[static_cast<std::size_t>(fiber)]
               ? degrade_factor_[static_cast<std::size_t>(fiber)]
               : 1.0;
  }

  /// True when the plan can never take anything down (lets the simulator
  /// skip per-slot injector work on fault-free runs).
  bool inert() const { return inert_; }

  /// True when the plan can change an entanglement-generation rate at some
  /// point of the run (scripted degradation or stochastic degradation
  /// process). False lets engines freeze the fiber→rate buckets per run.
  bool degradations_possible() const;

 private:
  void apply(const FaultEvent& event, int slot, const obs::Sink& sink);
  void cut_fiber(int fiber, int slot, int duration, const obs::Sink& sink);

  const Topology* topology_;
  FaultPlan plan_;            ///< scripted sorted by slot (stable)
  std::size_t next_scripted_ = 0;
  std::vector<int> fiber_down_until_;
  std::vector<int> node_down_until_;
  std::vector<int> degrade_until_;
  std::vector<double> degrade_factor_;
  bool inert_ = false;
};

}  // namespace surfnet::netsim
