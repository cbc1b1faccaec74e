#pragma once

// Internal machinery of the surface-code engine (event_simulator.cpp),
// part of which simulate_purification (simulator.cpp) shares. NOT part of
// the public netsim API — include only from netsim/*.cpp, from tests that
// deliberately reach into engine internals, and from
// bench/bench_event_core.cpp, which times the every-slot oracle below
// against simulate_surfnet.
//
// Everything here is independent of which slots the engine visits: static
// request validation, the in-flight code state, the decode/correction
// step, the recovery actions, and the entanglement-rate buckets. Every
// visited slot runs process_code() for its per-code work, so skipping
// slots cannot change the observable behavior of one processed code —
// including its RNG draw order and its sink events.

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
#include "qec/lattice.h"
#include "qec/syndrome.h"

namespace surfnet::netsim::detail {

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
  int swap_attempts = 0;    ///< consecutive failed segment-jump swaps
  int failed_reroutes = 0;  ///< consecutive failed local recoveries
  bool corrupted = false;
};

inline int find_on_path(const std::vector<int>& path, int node, int from) {
  for (std::size_t i = static_cast<std::size_t>(from); i < path.size(); ++i)
    if (path[i] == node) return static_cast<int>(i);
  return -1;
}

/// Bucket bounds for the per-slot pool-total histogram ("sim.pool_total").
inline const std::vector<double>& pool_bounds() {
  static const std::vector<double> bounds{0,  10,  25,  50,   100,
                                          250, 500, 1000, 2500, 5000};
  return bounds;
}

/// Bucket bounds for delivered-code latency ("sim.latency_slots").
inline const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds{5,   10,  20,  40,   80,
                                          160, 320, 640, 1280, 2560};
  return bounds;
}

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

inline ActiveCode launch(const RequestPlan& plan, int slot) {
  ActiveCode code;
  code.s_path = plan.sched->support_path;
  code.c_path = plan.sched->core_path;
  code.start_slot = slot;
  retarget(plan, code);
  return code;
}

/// Escalation: replace the remainder of one channel's route with a fresh
/// plan through every remaining EC barrier to the destination
/// (netsim/recovery.h). Emits an escalate event whether or not a live
/// route exists; on success both channel targets are recomputed.
inline void escalate(const Topology& topology, const FaultInjector& injector,
                     const obs::Sink& sink, const RequestPlan& plan,
                     ActiveCode& code, bool core_channel, int slot) {
  std::vector<int> waypoints;
  for (std::size_t b = static_cast<std::size_t>(code.barrier);
       b < plan.barriers.size(); ++b)
    waypoints.push_back(plan.barriers[b].node);
  auto& path = core_channel ? code.c_path : code.s_path;
  const int pos = core_channel ? code.c_pos : code.s_pos;
  const bool ok = replan_route(topology, injector, slot, path, pos, waypoints);
  if (sink.metrics) sink.metrics->count("sim.escalations");
  if (sink.trace)
    sink.trace->record(obs::Event::escalate(slot, plan.sched->request_index,
                                            core_channel, ok));
  if (ok) retarget(plan, code);
}

/// A local recovery that found no live detour: escalate to a full
/// re-route after the policy's threshold of consecutive failures.
inline void reroute_failed(const Topology& topology,
                           const FaultInjector& injector,
                           const RecoveryPolicy& policy, const obs::Sink& sink,
                           const RequestPlan& plan, ActiveCode& code,
                           bool core_channel, int slot) {
  ++code.failed_reroutes;
  if (policy.escalate_after_reroutes > 0 &&
      code.failed_reroutes >= policy.escalate_after_reroutes) {
    escalate(topology, injector, sink, plan, code, core_channel, slot);
    code.failed_reroutes = 0;
  }
}

/// Decode over the noise accumulated since the last correction. The
/// tracing path samples and decodes explicitly so that it can report
/// erasure and syndrome counts; it draws the same random-variate sequence
/// as run_code_trial, so traced and untraced runs stay bitwise-identical.
inline void run_correction(const RequestPlan& plan, ActiveCode& code, int slot,
                           int node, bool is_ec,
                           const SimulationParams& params,
                           const decoder::Decoder& decoder, util::Rng& rng) {
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
      params.purification_factor * params.noise_scale * code.acc_core_mu +
      op_mu);

  std::vector<qec::QubitNoise> rates(
      static_cast<std::size_t>(geometry.lattice.num_data_qubits()));
  for (int q = 0; q < geometry.lattice.num_data_qubits(); ++q) {
    const bool core =
        !plan.raw && geometry.partition.is_core[static_cast<std::size_t>(q)];
    rates[static_cast<std::size_t>(q)] =
        core ? qec::QubitNoise{core_pauli, 0.0}
             : qec::QubitNoise{support_pauli, support_erasure};
  }
  const qec::NoiseProfile profile{std::move(rates)};
  bool success;
  if (sink.trace) {
    const auto sample = qec::sample_errors(profile, params.channel, rng);
    const auto prior = profile.component_error_prob(params.channel);
    success = decoder::decode_sample(geometry.lattice, sample, prior, decoder)
                  .success();
    int erasures = 0;
    for (const char e : sample.erased) erasures += e ? 1 : 0;
    int syndromes = 0;
    for (const auto kind : {qec::GraphKind::Z, qec::GraphKind::X}) {
      const auto flips = qec::edge_flips(geometry.lattice, kind, sample.error);
      const auto bitmap =
          qec::syndrome_bitmap(geometry.lattice.graph(kind), flips);
      for (const char s : bitmap) syndromes += s ? 1 : 0;
    }
    sink.trace->record(obs::Event::decode(slot, plan.sched->request_index,
                                          node, is_ec, erasures, syndromes,
                                          !success));
  } else {
    success = decoder::run_code_trial(geometry.lattice, profile,
                                      params.channel, decoder, rng)
                  .success();
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
/// advance() draws the exact legacy random-variate sequence (one Bernoulli
/// per fiber with a fractional current rate, in fiber order).
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

  double base_rate() const { return base_rate_; }
  int base_whole() const { return base_whole_; }
  double base_frac() const { return base_frac_; }
  bool degradable() const { return degradable_; }
  int cap(int fiber) const {
    return caps_[static_cast<std::size_t>(fiber)];
  }

  /// Current rate of one fiber, split as whole + frac (frac in [0, 1)).
  double rate_at(int fiber, int slot, const FaultInjector& injector) const {
    return degradable_ ? base_rate_ * injector.entanglement_factor(fiber, slot)
                       : base_rate_;
  }

  /// Advance every pool by one slot of generation: the verbatim per-slot
  /// sweep of an eager run.
  void advance(std::vector<int>& pairs, const FaultInjector& injector,
               int slot, util::Rng& rng) const {
    if (!degradable_ && base_frac_ <= 0.0) {
      for (std::size_t e = 0; e < pairs.size(); ++e)
        pairs[e] = std::min(caps_[e], pairs[e] + base_whole_);
      return;
    }
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const double rate = rate_at(static_cast<int>(e), slot, injector);
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

/// Per-slot pool snapshot for the sink (totals histogram + pool event).
inline void emit_pool_snapshot(const std::vector<int>& pairs, int slot,
                               const obs::Sink& sink) {
  if (!sink.enabled() || pairs.empty()) return;
  int total = 0;
  int min_level = pairs[0];
  for (const int p : pairs) {
    total += p;
    min_level = std::min(min_level, p);
  }
  if (sink.metrics)
    sink.metrics->observe("sim.pool_total", total, pool_bounds());
  if (sink.trace) sink.trace->record(obs::Event::pool(slot, total, min_level));
}

/// What one process_code() invocation did to the code.
enum class CodeStep {
  InFlight,  ///< still active next slot
  Finished,  ///< delivered or timed out; a CodeRecord was appended
};

/// Side facts the engine needs for its wake computation. Recording these
/// changes no behavior.
struct StepFlags {
  bool support_reroute_failed = false;  ///< blocked + local recovery failed
  bool core_reroute_failed = false;
};

/// One code's work in one visited slot (timeout budget, cooldown, Support
/// hop, Core segment jump, barrier decode). `Pool` provides
/// `int level(int fiber)` and `void consume(int fiber, int n)` over the
/// prepared-pair inventory.
template <typename Pool>
CodeStep process_code(const Topology& topology, const FaultInjector& injector,
                      const RecoveryPolicy& policy,
                      const SimulationParams& params,
                      const decoder::Decoder& decoder, const RequestPlan& plan,
                      ActiveCode& code, int slot, Pool& pool,
                      SimulationResult& result, util::Rng& rng,
                      StepFlags& flags) {
  const obs::Sink& sink = params.sink;
  // Per-code timeout budget: a starved code is abandoned individually
  // instead of pinning its request to the end of the run.
  if (policy.code_timeout_slots > 0 &&
      slot - code.start_slot >= policy.code_timeout_slots) {
    const int slots = slot - code.start_slot;
    result.codes.push_back({plan.sched->request_index, slots, code.corrections,
                            CodeOutcome::TimedOut});
    if (sink.metrics) sink.metrics->count("sim.timeouts");
    if (sink.trace)
      sink.trace->record(
          obs::Event::timeout(slot, plan.sched->request_index, slots));
    return CodeStep::Finished;
  }
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
    } else if (policy.local_reroute) {
      if (local_reroute(topology, injector, slot, code.s_path, code.s_pos,
                        barrier.node)) {
        code.s_target = find_on_path(code.s_path, barrier.node, code.s_pos);
        code.failed_reroutes = 0;
        if (sink.metrics) sink.metrics->count("sim.recoveries");
        if (sink.trace)
          sink.trace->record(obs::Event::recovery(
              slot, plan.sched->request_index, /*core_channel=*/false));
      } else {
        reroute_failed(topology, injector, policy, sink, plan, code,
                       /*core_channel=*/false, slot);
        flags.support_reroute_failed = true;
      }
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
      if (pool.level(e) < n_core) ready = false;
    }
    if (broken) {
      if (policy.local_reroute) {
        if (local_reroute(topology, injector, slot, code.c_path, code.c_pos,
                          barrier.node)) {
          code.c_target = find_on_path(code.c_path, barrier.node, code.c_pos);
          code.failed_reroutes = 0;
          if (sink.metrics) sink.metrics->count("sim.recoveries");
          if (sink.trace)
            sink.trace->record(obs::Event::recovery(
                slot, plan.sched->request_index, /*core_channel=*/true));
        } else {
          reroute_failed(topology, injector, policy, sink, plan, code,
                         /*core_channel=*/true, slot);
          flags.core_reroute_failed = true;
        }
      }
    } else if (ready) {
      double segment_mu = 0.0;
      for (int h = 0; h < segment; ++h) {
        const int e = topology.fiber_between(
            code.c_path[static_cast<std::size_t>(code.c_pos + h)],
            code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)]);
        pool.consume(e, n_core);
        segment_mu += topology.fiber_noise(e);
      }
      // Entanglement swapping and teleportation are probabilistic; a
      // failed attempt wastes the consumed pairs.
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
        code.swap_attempts = 0;
      } else if (policy.max_swap_retries > 0) {
        // Bounded retries: back off exponentially instead of hammering
        // the starved pools; past the budget, escalate to a full
        // re-route.
        ++code.swap_attempts;
        if (code.swap_attempts > policy.max_swap_retries) {
          escalate(topology, injector, sink, plan, code,
                   /*core_channel=*/true, slot);
          code.swap_attempts = 0;
        } else {
          const int backoff = policy.backoff_slots(code.swap_attempts);
          code.cooldown = backoff;
          if (sink.metrics) sink.metrics->count("sim.retries");
          if (sink.trace)
            sink.trace->record(obs::Event::retry(
                slot, plan.sched->request_index, /*core_channel=*/true,
                code.swap_attempts, backoff));
        }
      }
    }
  }

  // Barrier reached by both parts: correct (or finally read out).
  // Corrections wait while the barrier node is down or a decode-latency
  // spike stalls the network's decoders.
  const bool support_done = code.s_pos >= code.s_target;
  const bool core_done = plan.raw || code.c_pos >= code.c_target;
  if (support_done && core_done && !injector.node_down(barrier.node, slot) &&
      !injector.decode_stalled(slot)) {
    run_correction(plan, code, slot, barrier.node, barrier.is_ec, params,
                   decoder, rng);
    const bool final_barrier =
        code.barrier + 1 == static_cast<int>(plan.barriers.size());
    if (final_barrier) {
      ++result.codes_delivered;
      if (!code.corrupted) ++result.codes_succeeded;
      const int slots = slot - code.start_slot + 1;
      result.total_latency += slots;
      result.codes.push_back({plan.sched->request_index, slots,
                              code.corrections,
                              code.corrupted ? CodeOutcome::LogicalError
                                             : CodeOutcome::Succeeded});
      if (sink.metrics) {
        sink.metrics->count("sim.delivered");
        if (!code.corrupted) sink.metrics->count("sim.succeeded");
        sink.metrics->observe("sim.latency_slots", slots, latency_bounds());
      }
      if (sink.trace)
        sink.trace->record(obs::Event::delivered(
            slot, plan.sched->request_index, slots, code.corrections,
            code.corrupted));
      return CodeStep::Finished;
    }
    ++code.barrier;
    retarget(plan, code);
    code.cooldown = 1;  // the EC circuit occupies one slot
  }
  return CodeStep::InFlight;
}

/// The test oracle for slot skipping: simulate_surfnet forced to visit
/// every slot and to sweep every entanglement pool verbatim (eager and
/// dense mode on every run). simulate_surfnet must return the same result
/// and leave the same RNG stream. A sink forces simulate_surfnet into this
/// mode, so observed runs of the two are identical.
SimulationResult simulate_surfnet_every_slot(const Topology& topology,
                                             const Schedule& schedule,
                                             const SimulationParams& params,
                                             const decoder::Decoder& decoder,
                                             util::Rng& rng);

}  // namespace surfnet::netsim::detail
