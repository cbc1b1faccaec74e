#include "netsim/event_simulator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "netsim/event_queue.h"
#include "netsim/sim_internal.h"

// Engine equivalence argument (details in DESIGN.md §"Event engine").
//
// A *visited* slot executes one fixed phase sequence — entanglement
// generation, FaultInjector::begin_slot, pool snapshot, service-order
// shuffle, per-code processing — through the shared code in
// netsim/sim_internal.h. The queue only decides WHICH slots are visited.
// A slot may be skipped only when visiting it would provably (a) draw no
// random variate, (b) emit no sink event, and (c) change state only in
// ways a closed form reproduces (deterministic pool gains, cooldown
// decrements, failed-reroute counters). Four run modes make that proof
// easy:
//
//   eager  — sink attached or fractional base rate: the gains sweep runs
//            verbatim every slot (it draws / must be observed per slot).
//   dense  — eager, or stochastic fault processes, or != 1 request:
//            every slot is visited; pools may still be lazy.
//   skip   — single request, scripted-only faults, integral base rate,
//            no sink: slots between queued wake-ups are skipped.
//   every-slot — eager and dense forced on every run
//            (detail::simulate_surfnet_every_slot): the test oracle that
//            skip mode and lazy pools are compared against.
//
// In skip mode, fault state is piecewise-constant between scripted
// onset/expiry slots, and both of those are preloaded into the queue; so
// within a gap nothing can unblock, break, or expire, and the per-code
// wake computation (compute_wake) only has to evaluate the state at
// slot + 1 to know it for the whole gap. Wake-ups may be early — an
// extra visit is harmless by construction — but never late.

namespace surfnet::netsim {

std::string_view to_string(EventClass cls) {
  switch (cls) {
    case EventClass::FaultOnset: return "fault_onset";
    case EventClass::FaultExpiry: return "fault_expiry";
    case EventClass::Launch: return "launch";
    case EventClass::RequestTimeout: return "request_timeout";
    case EventClass::RetryTimer: return "retry_timer";
    case EventClass::EntanglementReady: return "entanglement_ready";
    case EventClass::CodeWake: return "code_wake";
    case EventClass::Departure: return "departure";
    case EventClass::Arrival: return "arrival";
  }
  return "?";
}

namespace {

using namespace detail;

constexpr int kNever = std::numeric_limits<int>::max();

/// Per-fiber prepared-pair pools with lazily materialized gains.
///
/// A visited slot adds `min(cap, pairs + gain)` to every fiber. With an
/// integral generation rate the gain is deterministic, so a fiber's level
/// after k untouched slots has the closed form `min(cap, p0 + whole·k)`
/// (saturation is absorbing because gains are non-negative, so one clamp
/// at the end equals a clamp per slot). Each fiber carries a high-water
/// slot (`as_of_`) and is materialized on demand. Fractional rates draw
/// one Bernoulli per slot per fiber — those draws cannot be skipped
/// without changing the RNG stream, so fibers inside a fractional-rate
/// degradation window live in `fractional_` and are materialized
/// (drawing, in ascending fiber order, exactly like the eager sweep) at
/// every slot while the window lasts; the engine visits every slot of
/// such a window (fractional_until()).
///
/// Rate history per fiber is "current degradation window, then base":
/// the RateChangeListener hook materializes a fiber up to the mutation
/// slot *before* the injector rewrites its window (generation precedes
/// fault injection within a slot), so the mirror never needs more than
/// one window of history.
class LazyPools final : public RateChangeListener {
 public:
  LazyPools(const Topology& topology, const EntanglementRates& rates,
            const FaultInjector& injector, bool eager)
      : rates_(&rates),
        injector_(&injector),
        eager_(eager),
        pairs_(static_cast<std::size_t>(topology.num_fibers()), 0),
        as_of_(static_cast<std::size_t>(topology.num_fibers()), -1),
        win_until_(static_cast<std::size_t>(topology.num_fibers()), 0),
        win_factor_(static_cast<std::size_t>(topology.num_fibers()), 1.0) {}

  /// Phase 1 of a visited slot: entanglement generation. Eager mode runs
  /// the per-slot sweep verbatim; lazy mode draws only for fibers
  /// inside a live fractional window (the only fibers the sweep draws
  /// for when the base rate is integral).
  void generate(int slot, util::Rng& rng) {
    if (eager_) {
      rates_->advance(pairs_, *injector_, slot, rng);
      return;
    }
    std::size_t keep = 0;
    for (std::size_t i = 0; i < fractional_.size(); ++i) {
      const int e = fractional_[i];
      materialize(e, slot, &rng);
      if (win_until_[static_cast<std::size_t>(e)] > slot)
        fractional_[keep++] = e;
    }
    fractional_.resize(keep);
  }

  /// RateChangeListener: the injector is about to rewrite this fiber's
  /// degradation window at `slot`. Gains through `slot` accrued under
  /// the outgoing rate, so they are banked before the mirror goes stale.
  void before_rate_change(int fiber, int slot) override {
    if (eager_) return;
    materialize(fiber, slot, nullptr);
    changed_.push_back(fiber);
  }

  /// Phase 2, after FaultInjector::begin_slot: refresh the window mirror
  /// of every fiber whose rate was rewritten this slot.
  void sync(int slot) {
    for (const int fiber : changed_) {
      const auto e = static_cast<std::size_t>(fiber);
      win_until_[e] = injector_->degrade_until(fiber);
      win_factor_[e] = injector_->degrade_factor(fiber);
      const double rate = rates_->base_rate() * win_factor_[e];
      const bool fractional =
          win_until_[e] > slot && rate - static_cast<int>(rate) > 0.0;
      const auto it =
          std::lower_bound(fractional_.begin(), fractional_.end(), fiber);
      const bool present = it != fractional_.end() && *it == fiber;
      if (fractional && !present) fractional_.insert(it, fiber);
      if (!fractional && present) fractional_.erase(it);
      if (fractional && win_until_[e] > fractional_until_)
        fractional_until_ = win_until_[e];
    }
    changed_.clear();
  }

  /// Every slot below this still carries per-slot Bernoulli draws from a
  /// fractional-rate window, so the engine must visit it.
  int fractional_until() const { return fractional_until_; }

  int level(int fiber, int slot) {
    if (!eager_) materialize(fiber, slot, nullptr);
    return pairs_[static_cast<std::size_t>(fiber)];
  }
  void consume(int fiber, int n) {
    pairs_[static_cast<std::size_t>(fiber)] -= n;
  }
  const std::vector<int>& raw() const { return pairs_; }

  /// Smallest slot t >= from with level(fiber, t) >= need assuming no
  /// consumption in between; kNever when unreachable, `from` when the
  /// crossing has no closed form (early wake-ups are harmless, late ones
  /// would skip a jump the every-slot run makes).
  int first_ready(int fiber, int need, int from) {
    if (eager_) return from;
    const auto e = static_cast<std::size_t>(fiber);
    if (need > rates_->cap(fiber)) return kNever;
    materialize(fiber, from - 1, nullptr);
    long long level = pairs_[e];
    if (level >= need) return from;
    // Crossing-slot arithmetic is exact while the level is below `need`
    // (<= cap), where the per-slot clamp never engages.
    int begin = from;
    if (begin < win_until_[e]) {
      const double rate = rates_->base_rate() * win_factor_[e];
      const int whole = static_cast<int>(rate);
      if (rate - whole > 0.0) return from;  // fractional: slot-by-slot
      const int end = win_until_[e] - 1;
      if (whole > 0) {
        const long long k = (need - level + whole - 1) / whole;
        if (begin + k - 1 <= end) return static_cast<int>(begin + k - 1);
      }
      level += static_cast<long long>(whole) * (end - begin + 1);
      begin = end + 1;
    }
    const int whole = rates_->base_whole();  // base frac is 0 in lazy mode
    if (whole <= 0) return kNever;
    const long long t = begin + (need - level + whole - 1) / whole - 1;
    return t >= kNever ? kNever : static_cast<int>(t);
  }

 private:
  /// Bring one fiber's level up to date through `slot`.
  void materialize(int fiber, int slot, util::Rng* rng) {
    const auto e = static_cast<std::size_t>(fiber);
    int& as_of = as_of_[e];
    if (slot <= as_of) return;
    long long level = pairs_[e];
    const int cap = rates_->cap(fiber);
    int begin = as_of + 1;
    if (begin < win_until_[e]) {
      const int end = std::min(slot, win_until_[e] - 1);
      level = gain_over(level, cap, rates_->base_rate() * win_factor_[e],
                        begin, end, rng);
      begin = end + 1;
    }
    if (begin <= slot)
      level = gain_over(level, cap, rates_->base_rate(), begin, slot, rng);
    pairs_[e] = static_cast<int>(level);
    as_of = slot;
  }

  static long long gain_over(long long level, int cap, double rate, int begin,
                             int end, util::Rng* rng) {
    const int whole = static_cast<int>(rate);
    const double frac = rate - whole;
    if (frac <= 0.0)
      return std::min<long long>(
          cap, level + static_cast<long long>(whole) * (end - begin + 1));
    // Fractional rates draw once per slot, and every slot of a live
    // fractional window is visited and materialized by generate() — a
    // fractional segment can never span more than the slot in hand.
    if (rng == nullptr || begin != end)
      throw std::logic_error(
          "event engine: fractional gain across skipped slots");
    const int gain = whole + (rng->bernoulli(frac) ? 1 : 0);
    return std::min<long long>(cap, level + gain);
  }

  const EntanglementRates* rates_;
  const FaultInjector* injector_;
  bool eager_;
  std::vector<int> pairs_;
  std::vector<int> as_of_;      ///< last slot whose gains are banked
  std::vector<int> win_until_;  ///< mirrored degradation window per fiber
  std::vector<double> win_factor_;
  std::vector<int> fractional_;  ///< fibers drawing per slot (ascending)
  std::vector<int> changed_;     ///< fibers mutated this slot (pre-sync)
  int fractional_until_ = 0;
};

/// Pool adapter handed to the shared process_code() template.
struct LazyPoolView {
  LazyPools* pools;
  int slot;
  int level(int fiber) const { return pools->level(fiber, slot); }
  void consume(int fiber, int n) { pools->consume(fiber, n); }
};

struct WakePlan {
  int slot = kNever;
  EventClass cls = EventClass::CodeWake;
};

/// Earliest future slot at which the (single, skip-mode) in-flight code
/// can possibly act, given that fault state is constant from slot + 1
/// until the next queued onset/expiry caps any gap. `flags` records
/// whether a local recovery failed at the visit just executed.
WakePlan compute_wake(const Topology& topology, const FaultInjector& injector,
                      const RecoveryPolicy& policy,
                      const SimulationParams& params, const RequestPlan& plan,
                      const ActiveCode& code, int slot, const StepFlags& flags,
                      LazyPools& pools) {
  const int q = slot + 1;
  WakePlan wake;
  auto consider = [&wake](int s, EventClass cls) {
    if (s < wake.slot) wake = {s, cls};
  };
  if (policy.code_timeout_slots > 0)
    consider(code.start_slot + policy.code_timeout_slots,
             EventClass::RequestTimeout);
  if (code.cooldown > 0) {
    // Nothing happens until the cooldown runs out (gaps decrement it in
    // closed form) — except the timeout budget, already considered.
    consider(slot + code.cooldown + 1, EventClass::RetryTimer);
    return wake;
  }
  const auto& barrier = plan.barriers[static_cast<std::size_t>(code.barrier)];
  bool support_failing = false;
  bool core_failing = false;

  if (code.s_pos < code.s_target) {
    const int next = code.s_path[static_cast<std::size_t>(code.s_pos) + 1];
    const int e = topology.fiber_between(
        code.s_path[static_cast<std::size_t>(code.s_pos)], next);
    if (!injector.fiber_down(e, q) && !injector.node_down(next, q)) {
      consider(q, EventClass::CodeWake);  // the hop goes through next slot
    } else if (policy.local_reroute) {
      if (flags.support_reroute_failed)
        support_failing = true;  // one failed reroute per gap slot
      else
        consider(q, EventClass::CodeWake);  // state changed this visit
    }
    // else: photons held until a queued window expiry frees the route.
  }

  if (!plan.raw && code.c_pos < code.c_target) {
    const int n_core = plan.geometry->partition.num_core;
    const int segment =
        std::min(params.opportunistic_segment, code.c_target - code.c_pos);
    bool broken = false;
    for (int h = 0; h < segment; ++h) {
      const int to = code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)];
      const int e = topology.fiber_between(
          code.c_path[static_cast<std::size_t>(code.c_pos + h)], to);
      if (injector.fiber_down(e, q) || injector.node_down(to, q))
        broken = true;
    }
    if (broken) {
      if (policy.local_reroute) {
        if (flags.core_reroute_failed)
          core_failing = true;
        else
          consider(q, EventClass::CodeWake);
      }
      // else: held until a queued expiry heals the segment.
    } else {
      int ready = q;
      for (int h = 0; h < segment && ready < kNever; ++h) {
        const int e = topology.fiber_between(
            code.c_path[static_cast<std::size_t>(code.c_pos + h)],
            code.c_path[static_cast<std::size_t>(code.c_pos + h + 1)]);
        ready = std::max(ready, pools.first_ready(e, n_core, q));
      }
      if (ready < kNever) consider(ready, EventClass::EntanglementReady);
    }
  }

  if (support_failing && core_failing) {
    consider(q, EventClass::CodeWake);  // no closed form for two counters
  } else if ((support_failing || core_failing) &&
             policy.escalate_after_reroutes > 0) {
    // The blocked channel fails one local recovery per slot; the next
    // escalation fires after (threshold - failed_reroutes) more slots.
    // If its replan would find a live route under the gap's constant
    // fault state, that slot must be visited; otherwise escalations
    // inside the gap are no-ops and the counter advances in closed form.
    const int j = policy.escalate_after_reroutes - code.failed_reroutes;
    std::vector<int> waypoints;
    for (std::size_t b = static_cast<std::size_t>(code.barrier);
         b < plan.barriers.size(); ++b)
      waypoints.push_back(plan.barriers[b].node);
    std::vector<int> probe = core_failing ? code.c_path : code.s_path;
    const int pos = core_failing ? code.c_pos : code.s_pos;
    if (replan_route(topology, injector, q, probe, pos, waypoints))
      consider(slot + j, EventClass::CodeWake);
  }

  const bool support_done = code.s_pos >= code.s_target;
  const bool core_done = plan.raw || code.c_pos >= code.c_target;
  if (support_done && core_done && !injector.node_down(barrier.node, q) &&
      !injector.decode_stalled(q))
    consider(q, EventClass::CodeWake);  // the barrier decode can run
  return wake;
}

/// Replay the state drift of `gap` skipped slots on the in-flight code.
/// Only two quantities drift across draw-free slots: the cooldown counter
/// and, while a channel is stuck in failing local recoveries, the
/// failed-reroutes counter (escalations inside a gap are no-ops — a
/// succeeding one would have been scheduled as a visit by compute_wake).
void advance_gap(const RecoveryPolicy& policy, ActiveCode& code,
                 const StepFlags& flags, int gap) {
  if (code.cooldown > 0) {
    code.cooldown -= gap;  // wake <= slot + cooldown + 1 caps the gap
    return;
  }
  if (!flags.support_reroute_failed && !flags.core_reroute_failed) return;
  if (policy.escalate_after_reroutes > 0)
    code.failed_reroutes =
        (code.failed_reroutes + gap) % policy.escalate_after_reroutes;
  else
    code.failed_reroutes += gap;
}

/// The engine. `every_slot` forces eager and dense mode: the test oracle.
SimulationResult run_engine(const Topology& topology,
                            const Schedule& schedule,
                            const SimulationParams& params,
                            const decoder::Decoder& decoder, util::Rng& rng,
                            bool every_slot) {
  SimulationResult result;
  result.codes_scheduled = schedule.scheduled_codes();
  if (schedule.scheduled.empty()) return result;
  const obs::Sink& sink = params.sink;

  std::map<int, CodeGeometry> geometries;
  auto geometry_for = [&](int distance) -> const CodeGeometry& {
    auto it = geometries.find(distance);
    if (it == geometries.end())
      it = geometries.emplace(distance, CodeGeometry(distance)).first;
    return it->second;
  };

  std::vector<RequestPlan> plans;
  plans.reserve(schedule.scheduled.size());
  for (const auto& s : schedule.scheduled) {
    if (s.codes <= 0) continue;
    const int distance =
        s.code_distance > 0 ? s.code_distance : params.code_distance;
    plans.push_back(make_plan(topology, s, geometry_for(distance)));
  }

  FaultInjector injector(topology, params.faults);
  const RecoveryPolicy policy = params.recovery;
  const EntanglementRates rates(topology, params, injector);

  // Run-mode selection (header comment): eager replays the gains sweep
  // verbatim; dense visits every slot; otherwise slots are skipped.
  const bool eager = every_slot || sink.enabled() || rates.base_frac() > 0.0;
  const bool dense =
      eager || injector.stochastic().any() || plans.size() != 1;
  LazyPools pools(topology, rates, injector, eager);

  std::vector<int> codes_remaining(plans.size());
  std::vector<ActiveCode> active(plans.size());
  std::vector<char> has_active(plans.size(), 0);
  for (std::size_t i = 0; i < plans.size(); ++i)
    codes_remaining[i] = plans[i].sched->codes;

  CorrectionWorkspace decode_ws;  // reused by every correction of the run

  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  EventQueue queue;
  if (!dense) {
    for (const auto& ev : injector.scripted()) {
      if (ev.slot < params.max_slots)
        queue.push(ev.slot, EventClass::FaultOnset, ev.target);
      const long long until = static_cast<long long>(ev.slot) + ev.duration;
      if (until < params.max_slots)
        queue.push(static_cast<int>(until), EventClass::FaultExpiry,
                   ev.target);
    }
  }

  int in_flight_or_pending = result.codes_scheduled;
  int final_slot = 0;
  std::int64_t visited = 0;
  int last_scheduled_wake = -1;

  int slot = 0;
  while (slot < params.max_slots && in_flight_or_pending > 0) {
    final_slot = slot;
    ++visited;

    // A visit is the same phase sequence in every mode.
    pools.generate(slot, rng);
    injector.begin_slot(slot, rng, sink, &pools);
    pools.sync(slot);
    // Snapshot no-ops unless the sink observes — which forces eager mode,
    // where raw() is fully materialized.
    emit_pool_snapshot(pools.raw(), slot, sink);

    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    StepFlags flags;  // meaningful only in skip mode (exactly one plan)
    for (std::size_t idx : order) {
      const RequestPlan& plan = plans[idx];
      if (!has_active[idx]) {
        if (codes_remaining[idx] == 0) continue;
        --codes_remaining[idx];
        active[idx] = launch(plan, slot);
        has_active[idx] = 1;
      }
      LazyPoolView pool{&pools, slot};
      flags = StepFlags{};
      if (process_code(topology, injector, policy, params, decoder,
                       decode_ws, plan, active[idx], slot, pool, result, rng,
                       flags) == CodeStep::Finished) {
        has_active[idx] = 0;
        --in_flight_or_pending;
      }
    }
    if (in_flight_or_pending <= 0) break;

    if (dense) {
      ++slot;
      continue;
    }

    // Skip mode: choose the next slot that must be visited.
    while (!queue.empty() && queue.top().slot <= slot) queue.pop();
    const WakePlan wake =
        has_active[0] ? compute_wake(topology, injector, policy, params,
                                     plans[0], active[0], slot, flags, pools)
                      : WakePlan{slot + 1, EventClass::Launch};
    if (wake.slot < kNever && wake.slot != last_scheduled_wake) {
      queue.push(wake.slot, wake.cls, 0);
      last_scheduled_wake = wake.slot;
    }
    int next = queue.empty() ? kNever : queue.top().slot;
    if (pools.fractional_until() > slot + 1) next = slot + 1;
    if (next == kNever) break;  // provably quiescent until the cap
    if (next > slot + 1 && has_active[0])
      advance_gap(policy, active[0], flags, next - slot - 1);
    slot = next;
  }

  // An every-slot run would sweep every remaining slot (drawing nothing a
  // skipped slot would have drawn) and censor in-flight codes at the cap.
  if (in_flight_or_pending > 0 && params.max_slots > 0)
    final_slot = params.max_slots - 1;
  for (std::size_t idx = 0; idx < plans.size(); ++idx) {
    if (!has_active[idx]) continue;
    const ActiveCode& code = active[idx];
    const int slots = final_slot - code.start_slot + 1;
    result.codes.push_back({plans[idx].sched->request_index, slots,
                            code.corrections, CodeOutcome::TimedOut});
    if (sink.metrics) sink.metrics->count("sim.timeouts");
    if (sink.trace)
      sink.trace->record(obs::Event::timeout(
          final_slot, plans[idx].sched->request_index, slots));
  }

  // A sink forces every-slot visiting, so the visit count is the only
  // engine metric an observed run can report.
  if (sink.metrics) sink.metrics->count("sim.event_slots_visited", visited);
  return result;
}

}  // namespace

SimulationResult simulate_surfnet(const Topology& topology,
                                  const Schedule& schedule,
                                  const SimulationParams& params,
                                  const decoder::Decoder& decoder,
                                  util::Rng& rng) {
  return run_engine(topology, schedule, params, decoder, rng,
                    /*every_slot=*/false);
}

SimulationResult detail::simulate_surfnet_every_slot(
    const Topology& topology, const Schedule& schedule,
    const SimulationParams& params, const decoder::Decoder& decoder,
    util::Rng& rng) {
  return run_engine(topology, schedule, params, decoder, rng,
                    /*every_slot=*/true);
}

}  // namespace surfnet::netsim
