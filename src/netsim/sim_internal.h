#pragma once

// Internal machinery of the slot loop (simulator.cpp). NOT part of the
// public netsim API — include only from netsim/*.cpp and from tests that
// deliberately reach into simulator internals.
//
// The entanglement-rate buckets every design's pools advance by, and the
// surface-code designs' per-code step: static request validation, the
// in-flight code state, the decode/correction step and the recovery
// actions. The loop runs process_code() once per active SurfNet or Raw
// code per slot, in the slot's service order.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "decoder/code_trial.h"
#include "decoder/decoder.h"
#include "netsim/channel.h"
#include "netsim/faults.h"
#include "netsim/recovery.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qec/core_support.h"
#include "qec/error_model.h"
#include "qec/lattice.h"

namespace surfnet::netsim::detail {

/// Residual noise fraction left on Core qubits by entanglement
/// purification. The scheduler's Eq. (6) accounts a conservative 1/2; the
/// recurrence formula rho' = r1 r2/(r1 r2 + (1-r1)(1-r2)) suppresses
/// infidelity roughly quadratically, so the executed channel does better.
inline constexpr double kPurificationFactor = 0.25;

/// Lattice + Core/Support partition for one code distance, shared across
/// all codes of that distance in a run.
struct CodeGeometry {
  qec::SurfaceCodeLattice lattice;
  qec::CoreSupportPartition partition;
  explicit CodeGeometry(int distance)
      : lattice(distance), partition(qec::make_core_support(lattice)) {}
};

/// Static, validated view of one scheduled request.
struct RequestPlan {
  const ScheduledRequest* sched = nullptr;
  bool raw = false;  ///< no Core path: everything rides the plain channel
  struct Barrier {
    int node = -1;
    bool is_ec = false;
  };
  std::vector<Barrier> barriers;  ///< EC servers in order, then destination
  const CodeGeometry* geometry = nullptr;
};

inline void validate_path(const Topology& topology,
                          const std::vector<int>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (topology.fiber_between(path[i], path[i + 1]) < 0)
      throw std::invalid_argument("schedule path has non-adjacent nodes");
}

inline void require_in_order(const std::vector<int>& path,
                             const std::vector<int>& nodes) {
  std::size_t cursor = 0;
  for (int node : nodes) {
    while (cursor < path.size() && path[cursor] != node) ++cursor;
    if (cursor == path.size())
      throw std::invalid_argument("EC server not on scheduled path");
    ++cursor;
  }
}

inline RequestPlan make_plan(const Topology& topology,
                             const ScheduledRequest& s,
                             const CodeGeometry& geometry) {
  RequestPlan plan;
  plan.sched = &s;
  plan.raw = s.core_path.empty();
  plan.geometry = &geometry;
  if (s.support_path.size() < 2)
    throw std::invalid_argument("scheduled request without a support path");
  validate_path(topology, s.support_path);
  require_in_order(s.support_path, s.ec_servers);
  if (!plan.raw) {
    validate_path(topology, s.core_path);
    require_in_order(s.core_path, s.ec_servers);
    if (s.core_path.front() != s.support_path.front() ||
        s.core_path.back() != s.support_path.back())
      throw std::invalid_argument("core/support paths disagree on endpoints");
  }
  for (int server : s.ec_servers) plan.barriers.push_back({server, true});
  plan.barriers.push_back({s.support_path.back(), false});
  return plan;
}

/// One in-flight surface code. Paths are per-code copies so that online
/// recovery (paper Sec. V-B) can reroute around failed fibers.
struct ActiveCode {
  std::vector<int> s_path;
  std::vector<int> c_path;
  int s_pos = 0;
  int c_pos = 0;
  int s_target = -1;  ///< index of the current barrier node in s_path
  int c_target = -1;
  int barrier = 0;
  double acc_support_mu = 0.0;  ///< noise since the last correction
  double acc_core_mu = 0.0;
  int acc_support_hops = 0;
  int jumps_since_ec = 0;
  int start_slot = 0;
  int cooldown = 0;
  int corrections = 0;
  bool corrupted = false;
};

/// Point the code's per-channel cursors at the current barrier node.
inline void retarget(const RequestPlan& plan, ActiveCode& code) {
  const int node = plan.barriers[static_cast<std::size_t>(code.barrier)].node;
  code.s_target = find_on_path(code.s_path, node, code.s_pos);
  if (code.s_target < 0)
    throw std::logic_error("barrier node lost from support path");
  if (!plan.raw) {
    code.c_target = find_on_path(code.c_path, node, code.c_pos);
    if (code.c_target < 0)
      throw std::logic_error("barrier node lost from core path");
  }
}

/// The barrier nodes the code has not passed yet: remaining EC servers in
/// order, then the destination.
inline std::vector<int> remaining_barriers(const RequestPlan& plan,
                                           const ActiveCode& code) {
  std::vector<int> nodes;
  for (std::size_t b = static_cast<std::size_t>(code.barrier);
       b < plan.barriers.size(); ++b)
    nodes.push_back(plan.barriers[b].node);
  return nodes;
}

/// A channel blocked by a failed fiber or a dead next node: detour locally
/// around it to `node` (netsim/recovery.h). Without local reroutes, or
/// when no live detour exists, the code holds in place until the next
/// slot.
inline void recover(const Topology& topology, const FaultInjector& injector,
                    const RecoveryPolicy& policy, const obs::Sink& sink,
                    const RequestPlan& plan, ActiveCode& code,
                    bool core_channel, int node, int slot) {
  if (!policy.local_reroute) return;
  auto& path = core_channel ? code.c_path : code.s_path;
  const int pos = core_channel ? code.c_pos : code.s_pos;
  if (!local_reroute(topology, injector, slot, path, pos, node)) return;
#if SURFNET_CHECKS
  check_reroute_invariants(topology, path, pos,
                           remaining_barriers(plan, code));
#endif
  (core_channel ? code.c_target : code.s_target) =
      find_on_path(path, node, pos);
  if (sink.metrics) sink.metrics->count("sim.recoveries");
  if (sink.trace)
    sink.trace->record(
        obs::Event::recovery(slot, plan.sched->request_index, core_channel));
}

/// Decode scratch owned by one simulation run and reused by every
/// correction in it: the code-trial workspace, a noise profile whose
/// per-qubit rates are overwritten in place, and the decoder prior. After
/// warm-up a correction allocates nothing.
struct CorrectionWorkspace {
  decoder::CodeTrialWorkspace trial;
  qec::NoiseProfile profile;
  std::vector<double> prior;
};

/// Decode over the noise accumulated since the last correction: rates into
/// the run's profile, then one sample and one decode of both graphs on the
/// run's workspace. Traced and untraced runs take this same path, so they
/// draw the same random-variate sequence and stay bitwise-identical.
inline void run_correction(const RequestPlan& plan, ActiveCode& code, int slot,
                           int node, bool is_ec,
                           const SimulationParams& params,
                           const decoder::Decoder& decoder,
                           CorrectionWorkspace& ws, util::Rng& rng) {
  const obs::Sink& sink = params.sink;
  const auto& geometry = *plan.geometry;
  const double support_pauli =
      pauli_rate_of_noise(params.noise_scale * code.acc_support_mu);
  const double support_erasure =
      erasure_rate(params.loss_per_hop, code.acc_support_hops);
  // Purification across the entanglement-based channel suppresses the
  // Core noise (paper Sec. V-A); teleported qubits are never lost in
  // transit, but every teleportation event adds un-purifiable operation
  // noise that the surface code — unlike a bare qubit — can correct.
  const double op_mu =
      -std::log(1.0 - params.teleport_op_noise) * code.jumps_since_ec;
  const double core_pauli = pauli_rate_of_noise(
      kPurificationFactor * params.noise_scale * code.acc_core_mu +
      op_mu);

  const int qubits = geometry.lattice.num_data_qubits();
  ws.profile.resize(qubits);
  for (int q = 0; q < qubits; ++q) {
    const bool core =
        !plan.raw && geometry.partition.is_core[static_cast<std::size_t>(q)];
    ws.profile.qubit(q) = core
                              ? qec::QubitNoise{core_pauli, 0.0}
                              : qec::QubitNoise{support_pauli, support_erasure};
  }
  ws.profile.component_error_prob(ws.prior);
  qec::sample_errors(ws.profile, rng, ws.trial.sample);
  const auto outcome = decoder::decode_sample(
      geometry.lattice, ws.trial.sample, ws.prior, decoder, ws.trial);
  const bool success = outcome.success();
  if (sink.trace) {
    int erasures = 0;
    for (const char e : ws.trial.sample.erased) erasures += e ? 1 : 0;
    sink.trace->record(obs::Event::decode(slot, plan.sched->request_index,
                                          node, is_ec, erasures,
                                          outcome.syndromes, !success));
  }
  if (sink.metrics) {
    sink.metrics->count("sim.decodes");
    if (!success) sink.metrics->count("sim.decode_logical_errors");
  }
  if (!success) code.corrupted = true;
  ++code.corrections;
  code.acc_support_mu = 0.0;
  code.acc_core_mu = 0.0;
  code.acc_support_hops = 0;
  code.jumps_since_ec = 0;
}

/// Per-run fiber→rate buckets for the entanglement sources: capacities and
/// the whole/fractional split of the base rate are invariant across slots,
/// so they are derived once instead of per fiber per slot; only runs whose
/// fault plan can degrade a source re-derive the per-fiber rate each slot.
/// advance() draws one Bernoulli per fiber with a fractional current rate,
/// in fiber order.
class EntanglementRates {
 public:
  EntanglementRates(const Topology& topology, const SimulationParams& params,
                    const FaultInjector& injector)
      : base_rate_(params.entanglement_rate),
        base_whole_(static_cast<int>(params.entanglement_rate)),
        base_frac_(params.entanglement_rate - base_whole_),
        degradable_(injector.degradations_possible()) {
    caps_.reserve(static_cast<std::size_t>(topology.num_fibers()));
    for (int e = 0; e < topology.num_fibers(); ++e)
      caps_.push_back(topology.fiber(e).entanglement_capacity);
  }

  bool degradable() const { return degradable_; }

  /// Advance every pool by one slot of generation, each capped at its
  /// fiber's capacity.
  void advance(std::vector<int>& pairs, const FaultInjector& injector,
               int slot, util::Rng& rng) const {
    if (!degradable_ && base_frac_ <= 0.0) {
      for (std::size_t e = 0; e < pairs.size(); ++e)
        pairs[e] = std::min(caps_[e], pairs[e] + base_whole_);
      return;
    }
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const double rate =
          degradable_ ? base_rate_ * injector.entanglement_factor(
                                         static_cast<int>(e), slot)
                      : base_rate_;
      const int whole = static_cast<int>(rate);
      const double frac = rate - whole;
      const int gain = whole + ((frac > 0.0 && rng.bernoulli(frac)) ? 1 : 0);
      pairs[e] = std::min(caps_[e], pairs[e] + gain);
    }
  }

 private:
  double base_rate_;
  int base_whole_;
  double base_frac_;
  bool degradable_;
  std::vector<int> caps_;
};

/// What one design's step did to a code in one slot.
enum class CodeStep {
  InFlight,   ///< still active next slot
  Delivered,  ///< reached its destination; `corrupted` holds the verdict
};

/// One surface code's work in one slot (cooldown, Support hop, Core
/// segment jump, barrier decode on the run's `decode_ws`). `pairs` is the
/// per-fiber prepared-pair inventory; a jump consumes from it. The slot
/// loop checks the per-code timeout budget before the step.
inline CodeStep process_code(const Topology& topology,
                             const FaultInjector& injector,
                             const SimulationParams& params,
                             const decoder::Decoder& decoder,
                             CorrectionWorkspace& decode_ws,
                             const RequestPlan& plan, ActiveCode& code,
                             int slot, std::vector<int>& pairs,
                             util::Rng& rng) {
  const obs::Sink& sink = params.sink;
  const RecoveryPolicy& policy = params.recovery;
  if (code.cooldown > 0) {
    --code.cooldown;
    return CodeStep::InFlight;
  }
  const auto& barrier = plan.barriers[static_cast<std::size_t>(code.barrier)];

  // Plain channel: the Support part advances one fiber per slot; a
  // failed fiber or dead next node triggers a local recovery path (or
  // the photons are held in error-mitigation circuits until the route
  // heals).
  if (code.s_pos < code.s_target) {
    const int next = code.s_path[static_cast<std::size_t>(code.s_pos) + 1];
    const int e = topology.fiber_between(
        code.s_path[static_cast<std::size_t>(code.s_pos)], next);
    if (!injector.fiber_down(e, slot) && !injector.node_down(next, slot)) {
      ++code.s_pos;
      code.acc_support_mu += topology.fiber_noise(e);
      ++code.acc_support_hops;
    } else {
      recover(topology, injector, policy, sink, plan, code,
              /*core_channel=*/false, barrier.node, slot);
    }
  }

  // Entanglement-based channel: opportunistic movement over up to
  // `opportunistic_segment` fibers once every fiber of the segment is
  // alive and holds enough prepared pairs.
  if (!plan.raw && code.c_pos < code.c_target) {
    const int n_core = plan.geometry->partition.num_core;
    const int remaining = code.c_target - code.c_pos;
    const int segment = std::min(params.opportunistic_segment, remaining);
    bool ready = true;
    bool broken = false;
    for (int h = 0; h < segment; ++h) {
      const int e = topology.fiber_between(
          code.c_path[static_cast<std::size_t>(code.c_pos + h)],
          code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)]);
      if (injector.fiber_down(e, slot) ||
          injector.node_down(
              code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)], slot))
        broken = true;
      if (pairs[static_cast<std::size_t>(e)] < n_core) ready = false;
    }
    if (broken) {
      recover(topology, injector, policy, sink, plan, code,
              /*core_channel=*/true, barrier.node, slot);
    } else if (ready) {
      double segment_mu = 0.0;
      for (int h = 0; h < segment; ++h) {
        const int e = topology.fiber_between(
            code.c_path[static_cast<std::size_t>(code.c_pos + h)],
            code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)]);
        pairs[static_cast<std::size_t>(e)] -= n_core;
        segment_mu += topology.fiber_noise(e);
      }
      // Entanglement swapping and teleportation are probabilistic; a
      // failed attempt wastes the consumed pairs, and the code tries again
      // next slot.
      const bool success =
          params.swap_success >= 1.0 ||
          rng.bernoulli(std::pow(params.swap_success, segment));
      if (sink.metrics) {
        sink.metrics->count("sim.segment_jumps");
        if (!success) sink.metrics->count("sim.segment_jump_failures");
      }
      if (sink.trace)
        sink.trace->record(obs::Event::segment_jump(
            slot, plan.sched->request_index,
            code.c_path[static_cast<std::size_t>(code.c_pos)],
            code.c_path[static_cast<std::size_t>(code.c_pos + segment)],
            segment, success));
      if (success) {
        code.c_pos += segment;
        code.acc_core_mu += segment_mu;
        ++code.jumps_since_ec;
      }
    }
  }

  // Barrier reached by both parts: correct (or finally read out).
  // Corrections wait while the barrier node is down.
  const bool support_done = code.s_pos >= code.s_target;
  const bool core_done = plan.raw || code.c_pos >= code.c_target;
  if (support_done && core_done && !injector.node_down(barrier.node, slot)) {
    run_correction(plan, code, slot, barrier.node, barrier.is_ec, params,
                   decoder, decode_ws, rng);
    if (code.barrier + 1 == static_cast<int>(plan.barriers.size()))
      return CodeStep::Delivered;
    ++code.barrier;
    retarget(plan, code);
    code.cooldown = 1;  // the EC circuit occupies one slot
  }
  return CodeStep::InFlight;
}

}  // namespace surfnet::netsim::detail
