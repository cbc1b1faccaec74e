#include "netsim/simulator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netsim/entanglement.h"
#include "netsim/sim_internal.h"

namespace surfnet::netsim {

std::string_view to_string(NetworkDesign design) {
  switch (design) {
    case NetworkDesign::SurfNet: return "SurfNet";
    case NetworkDesign::Raw: return "Raw";
    case NetworkDesign::Purification1: return "Purification N=1";
    case NetworkDesign::Purification2: return "Purification N=2";
    case NetworkDesign::Purification9: return "Purification N=9";
  }
  return "?";
}

int purification_rounds(NetworkDesign design) {
  switch (design) {
    case NetworkDesign::Purification1: return 1;
    case NetworkDesign::Purification2: return 2;
    case NetworkDesign::Purification9: return 9;
    default: return 0;
  }
}

std::string_view to_string(CodeOutcome outcome) {
  switch (outcome) {
    case CodeOutcome::Succeeded: return "success";
    case CodeOutcome::LogicalError: return "logical_error";
    case CodeOutcome::TimedOut: return "timeout";
  }
  return "?";
}

namespace {

using namespace detail;

/// Throws std::invalid_argument naming the first SimulationParams field
/// outside its accepted range.
void validate_params(const SimulationParams& params) {
  auto require = [](bool ok, const char* what) {
    if (!ok)
      throw std::invalid_argument(std::string("SimulationParams: ") + what);
  };
  // Every comparison with NaN is false, so NaN fails each check below.
  auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  auto finite_nonnegative = [](double x) {
    return std::isfinite(x) && x >= 0.0;
  };
  require(params.opportunistic_segment >= 1,
          "opportunistic_segment must be >= 1");
  require(finite_nonnegative(params.entanglement_rate),
          "entanglement_rate must be finite and >= 0");
  require(probability(params.swap_success), "swap_success must be in [0, 1]");
  require(probability(params.loss_per_hop), "loss_per_hop must be in [0, 1]");
  require(finite_nonnegative(params.noise_scale),
          "noise_scale must be finite and >= 0");
  require(params.teleport_op_noise >= 0.0 && params.teleport_op_noise < 1.0,
          "teleport_op_noise must be in [0, 1)");
  require(params.max_slots >= 0, "max_slots must be >= 0");
}

/// Bucket bounds of the per-slot pool-total histogram ("sim.pool_total")
/// and of delivered-code latency ("sim.latency_slots").
const std::vector<double> kPoolBounds{0,   10,  25,   50,   100,
                                      250, 500, 1000, 2500, 5000};
const std::vector<double> kLatencyBounds{5,   10,  20,  40,   80,
                                         160, 320, 640, 1280, 2560};

/// Per-slot pool snapshot for the sink (totals histogram + pool event).
void emit_pool_snapshot(const std::vector<int>& pairs, int slot,
                        const obs::Sink& sink) {
  if (!sink.enabled() || pairs.empty()) return;
  int total = 0;
  int min_level = pairs[0];
  for (const int p : pairs) {
    total += p;
    min_level = std::min(min_level, p);
  }
  if (sink.metrics)
    sink.metrics->observe("sim.pool_total", total, kPoolBounds);
  if (sink.trace) sink.trace->record(obs::Event::pool(slot, total, min_level));
}

/// SurfNet and Raw: a surface code split over the two channels and decoded
/// at every EC server and at the destination (detail::process_code).
struct SurfaceCodeSteps {
  using Plan = RequestPlan;
  using Code = ActiveCode;

  SurfaceCodeSteps(const Topology& t, const SimulationParams& p,
                   const decoder::Decoder& d)
      : topology(t), params(p), decoder(d) {}

  const Topology& topology;
  const SimulationParams& params;
  const decoder::Decoder& decoder;
  std::map<int, CodeGeometry> geometries;
  CorrectionWorkspace decode_ws;  ///< reused by every correction of the run

  Plan plan(const ScheduledRequest& s) {
    const int distance =
        s.code_distance > 0 ? s.code_distance : params.code_distance;
    return make_plan(topology, s,
                     geometries.try_emplace(distance, distance).first->second);
  }

  static Code launch(const Plan& plan, int slot) {
    Code code{.s_path = plan.sched->support_path,
              .c_path = plan.sched->core_path,
              .start_slot = slot};
    retarget(plan, code);
    return code;
  }

  CodeStep step(const Plan& plan, Code& code, int slot,
                const FaultInjector& injector, std::vector<int>& pairs,
                util::Rng& rng) {
    return process_code(topology, injector, params, decoder, decode_ws, plan,
                        code, slot, pairs, rng);
  }
};

/// Purification N: a bare qubit teleported hop by hop, each hop consuming
/// 1 + N pairs of its fiber. It survives with the product of the purified
/// link fidelities, drawn as one Bernoulli at delivery.
struct PurificationSteps {
  struct Plan {
    const ScheduledRequest* sched;
    const std::vector<int>* path;
    double success_prob;
  };
  struct Code {
    int pos = 0;  ///< index of the qubit's node on the path
    int start_slot = 0;
    bool corrupted = false;
    static constexpr int corrections = 0;  ///< a bare qubit is not decoded
  };

  const Topology& topology;
  const SimulationParams& params;
  int extra_pairs;

  Plan plan(const ScheduledRequest& s) const {
    const auto& path = s.core_path.empty() ? s.support_path : s.core_path;
    if (path.size() < 2)
      throw std::invalid_argument("purification schedule without a path");
    validate_path(topology, path);
    double prob = 1.0;
    // Purification raises pair fidelity, but the bare message qubit also
    // survives the teleportation operations of each hop unprotected.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology.fiber_between(path[i], path[i + 1]);
      prob *= purified_fidelity(topology.fiber(e).fidelity, extra_pairs) *
              (1.0 - params.teleport_op_noise);
    }
    return {&s, &path, prob};
  }

  static Code launch(const Plan& /*plan*/, int slot) {
    return {.start_slot = slot};
  }

  CodeStep step(const Plan& plan, Code& code, int slot,
                const FaultInjector& injector, std::vector<int>& pairs,
                util::Rng& rng) const {
    const std::vector<int>& path = *plan.path;
    const int last = static_cast<int>(path.size()) - 1;
    if (code.pos < last) {
      const int next = path[static_cast<std::size_t>(code.pos) + 1];
      const int e = topology.fiber_between(
          path[static_cast<std::size_t>(code.pos)], next);
      int& pool = pairs[static_cast<std::size_t>(e)];
      const int per_hop = 1 + extra_pairs;
      if (!injector.fiber_down(e, slot) && !injector.node_down(next, slot) &&
          pool >= per_hop) {
        pool -= per_hop;
        ++code.pos;
      }
    }
    if (code.pos < last) return CodeStep::InFlight;
    code.corrupted = !rng.bernoulli(plan.success_prob);
    return CodeStep::Delivered;
  }
};

/// The slot loop all five designs run (DESIGN.md §7). Every slot runs one
/// fixed phase sequence — entanglement generation,
/// FaultInjector::begin_slot, pool snapshot, service-order shuffle, each
/// active code's step — so a (seed, params) pair fixes the random-variate
/// order, and an attached sink only reads state. `Steps` is one design's
/// per-code part:
///   Plan plan(const ScheduledRequest&)  validates a request; Plan::sched
///   Code launch(const Plan&, int slot)  Code::start_slot, corrections,
///                                       corrupted
///   CodeStep step(const Plan&, Code&, int slot, const FaultInjector&,
///                 std::vector<int>& pairs, util::Rng&)
/// The loop owns the rest: parameter checks, the plan pass, pools, faults,
/// the service order, the per-code timeout budget, the delivery and
/// timeout records, and censoring at the cap.
template <class Steps>
SimulationResult run_slots(const Topology& topology, const Schedule& schedule,
                           const SimulationParams& params, Steps& steps,
                           util::Rng& rng) {
  using Plan = typename Steps::Plan;
  using Code = typename Steps::Code;
  validate_params(params);
  SimulationResult result;
  result.codes_scheduled = schedule.scheduled_codes();
  if (schedule.scheduled.empty()) return result;
  const obs::Sink& sink = params.sink;

  std::vector<Plan> plans;
  plans.reserve(schedule.scheduled.size());
  for (const auto& s : schedule.scheduled) {
    if (s.codes < 0)
      throw std::invalid_argument("ScheduledRequest::codes must be >= 0");
    if (s.codes > 0) plans.push_back(steps.plan(s));
  }

  FaultInjector injector(topology, params.faults);
  const EntanglementRates rates(topology, params, injector);
  std::vector<int> pairs(static_cast<std::size_t>(topology.num_fibers()), 0);

  std::vector<int> codes_remaining(plans.size());
  std::vector<Code> active(plans.size());
  std::vector<char> has_active(plans.size(), 0);
  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    codes_remaining[i] = plans[i].sched->codes;
    order[i] = i;
  }

  auto time_out = [&](const Plan& plan, const Code& code, int slot,
                      int slots) {
    result.codes.push_back({plan.sched->request_index, slots,
                            code.corrections, CodeOutcome::TimedOut});
    if (sink.metrics) sink.metrics->count("sim.timeouts");
    if (sink.trace)
      sink.trace->record(
          obs::Event::timeout(slot, plan.sched->request_index, slots));
  };
  auto deliver = [&](const Plan& plan, const Code& code, int slot) {
    const int slots = slot - code.start_slot + 1;
    ++result.codes_delivered;
    if (!code.corrupted) ++result.codes_succeeded;
    result.total_latency += slots;
    result.codes.push_back({plan.sched->request_index, slots,
                            code.corrections,
                            code.corrupted ? CodeOutcome::LogicalError
                                           : CodeOutcome::Succeeded});
    if (sink.metrics) {
      sink.metrics->count("sim.delivered");
      if (!code.corrupted) sink.metrics->count("sim.succeeded");
      sink.metrics->observe("sim.latency_slots", slots, kLatencyBounds);
    }
    if (sink.trace)
      sink.trace->record(obs::Event::delivered(
          slot, plan.sched->request_index, slots, code.corrections,
          code.corrupted));
  };

  const int budget = params.recovery.code_timeout_slots;
  int pending = result.codes_scheduled;
  int slot = 0;  // after the loop: the number of slots visited
  for (; slot < params.max_slots && pending > 0; ++slot) {
    rates.advance(pairs, injector, slot, rng);
    injector.begin_slot(slot, rng, sink);
    emit_pool_snapshot(pairs, slot, sink);

    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    for (std::size_t idx : order) {
      const Plan& plan = plans[idx];
      Code& code = active[idx];
      if (!has_active[idx]) {
        if (codes_remaining[idx] == 0) continue;
        --codes_remaining[idx];
        code = steps.launch(plan, slot);
        has_active[idx] = 1;
      }
      // Per-code timeout budget: a starved code is abandoned individually
      // instead of pinning its request to the end of the run.
      if (budget > 0 && slot - code.start_slot >= budget) {
        time_out(plan, code, slot, slot - code.start_slot);
      } else if (steps.step(plan, code, slot, injector, pairs, rng) ==
                 CodeStep::Delivered) {
        deliver(plan, code, slot);
      } else {
        continue;
      }
      has_active[idx] = 0;
      --pending;
    }
  }

  // Codes still in flight at the cap are censored in its last slot.
  for (std::size_t idx = 0; idx < plans.size(); ++idx)
    if (has_active[idx])
      time_out(plans[idx], active[idx], slot - 1,
               slot - active[idx].start_slot);

  if (sink.metrics) sink.metrics->count("sim.event_slots_visited", slot);
  return result;
}

}  // namespace

SimulationResult simulate_surfnet(const Topology& topology,
                                  const Schedule& schedule,
                                  const SimulationParams& params,
                                  const decoder::Decoder& decoder,
                                  util::Rng& rng) {
  SurfaceCodeSteps steps(topology, params, decoder);
  return run_slots(topology, schedule, params, steps, rng);
}

SimulationResult simulate_purification(const Topology& topology,
                                       const Schedule& schedule,
                                       int extra_pairs,
                                       const SimulationParams& params,
                                       util::Rng& rng) {
  if (extra_pairs < 0)
    throw std::invalid_argument(
        "simulate_purification: extra_pairs must be >= 0");
  PurificationSteps steps{topology, params, extra_pairs};
  return run_slots(topology, schedule, params, steps, rng);
}

std::unique_ptr<Simulator> make_simulator(NetworkDesign design,
                                          const decoder::Decoder& decoder,
                                          SimEngine /*engine*/) {
  return std::make_unique<Simulator>(design, decoder);
}

}  // namespace surfnet::netsim
