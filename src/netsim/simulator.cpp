#include "netsim/simulator.h"

#include <cmath>
#include <stdexcept>
#include <string>

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

void detail::validate_params(const SimulationParams& params) {
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

std::unique_ptr<Simulator> make_simulator(NetworkDesign design,
                                          const decoder::Decoder& decoder,
                                          SimEngine /*engine*/) {
  switch (design) {
    case NetworkDesign::SurfNet:
    case NetworkDesign::Raw:
      return std::make_unique<SurfNetSimulator>(decoder);
    case NetworkDesign::Purification1:
    case NetworkDesign::Purification2:
    case NetworkDesign::Purification9:
      // Purification keeps its own slot loop; it is pair-pool-bound and
      // cheap.
      return std::make_unique<PurificationSimulator>(
          purification_rounds(design));
  }
  throw std::invalid_argument("unknown NetworkDesign");
}

SimulationResult simulate_purification(const Topology& topology,
                                       const Schedule& schedule,
                                       int extra_pairs,
                                       const SimulationParams& params,
                                       util::Rng& rng) {
  using detail::EntanglementRates;
  detail::validate_params(params);
  SimulationResult result;
  result.codes_scheduled = schedule.scheduled_codes();
  if (schedule.scheduled.empty()) return result;
  const obs::Sink& sink = params.sink;

  struct Plan {
    const ScheduledRequest* sched;
    double success_prob;
  };
  std::vector<Plan> plans;
  for (const auto& s : schedule.scheduled) {
    if (s.codes <= 0) continue;
    const auto& path = s.core_path.empty() ? s.support_path : s.core_path;
    if (path.size() < 2)
      throw std::invalid_argument("purification schedule without a path");
    double prob = 1.0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const int e = topology.fiber_between(path[i], path[i + 1]);
      if (e < 0)
        throw std::invalid_argument("schedule path has non-adjacent nodes");
      // Purification raises pair fidelity, but the bare message qubit also
      // survives the teleportation operations of each hop unprotected.
      prob *= purified_fidelity(topology.fiber(e).fidelity, extra_pairs) *
              (1.0 - params.teleport_op_noise);
    }
    plans.push_back({&s, prob});
  }

  std::vector<int> pairs(static_cast<std::size_t>(topology.num_fibers()), 0);
  FaultInjector injector(topology, params.faults);
  const RecoveryPolicy policy = params.recovery;
  const EntanglementRates rates(topology, params, injector);
  const int per_hop = 1 + extra_pairs;

  struct State {
    int pos = 0;
    int start = 0;
  };
  std::vector<int> codes_remaining(plans.size());
  std::vector<State> active(plans.size());
  std::vector<char> has_active(plans.size(), 0);
  for (std::size_t i = 0; i < plans.size(); ++i)
    codes_remaining[i] = plans[i].sched->codes;

  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  int pending = result.codes_scheduled;
  int final_slot = 0;
  for (int slot = 0; slot < params.max_slots && pending > 0; ++slot) {
    final_slot = slot;
    rates.advance(pairs, injector, slot, rng);
    injector.begin_slot(slot, rng, sink);
    detail::emit_pool_snapshot(pairs, slot, sink);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    for (std::size_t idx : order) {
      const Plan& plan = plans[idx];
      const auto& path = plan.sched->core_path.empty()
                             ? plan.sched->support_path
                             : plan.sched->core_path;
      if (!has_active[idx]) {
        if (codes_remaining[idx] == 0) continue;
        --codes_remaining[idx];
        active[idx] = State{0, slot};
        has_active[idx] = 1;
      }
      State& state = active[idx];
      // Per-code timeout budget (shared with the surface-code simulator).
      if (policy.code_timeout_slots > 0 &&
          slot - state.start >= policy.code_timeout_slots) {
        const int slots = slot - state.start;
        result.codes.push_back({plan.sched->request_index, slots, 0,
                                CodeOutcome::TimedOut});
        if (sink.metrics) sink.metrics->count("sim.timeouts");
        if (sink.trace)
          sink.trace->record(obs::Event::timeout(
              slot, plan.sched->request_index, slots));
        has_active[idx] = 0;
        --pending;
        continue;
      }
      if (state.pos + 1 < static_cast<int>(path.size())) {
        const int next = path[static_cast<std::size_t>(state.pos) + 1];
        const int e = topology.fiber_between(
            path[static_cast<std::size_t>(state.pos)], next);
        if (!injector.fiber_down(e, slot) &&
            !injector.node_down(next, slot) &&
            pairs[static_cast<std::size_t>(e)] >= per_hop) {
          pairs[static_cast<std::size_t>(e)] -= per_hop;
          ++state.pos;
        }
      }
      if (state.pos + 1 == static_cast<int>(path.size())) {
        ++result.codes_delivered;
        const bool ok = rng.bernoulli(plan.success_prob);
        if (ok) ++result.codes_succeeded;
        const int slots = slot - state.start + 1;
        result.total_latency += slots;
        result.codes.push_back(
            {plan.sched->request_index, slots, 0,
             ok ? CodeOutcome::Succeeded : CodeOutcome::LogicalError});
        if (sink.metrics) {
          sink.metrics->count("sim.delivered");
          if (ok) sink.metrics->count("sim.succeeded");
          sink.metrics->observe("sim.latency_slots", slots,
                                detail::latency_bounds());
        }
        if (sink.trace)
          sink.trace->record(obs::Event::delivered(
              slot, plan.sched->request_index, slots, 0, !ok));
        has_active[idx] = 0;
        --pending;
      }
    }
  }

  for (std::size_t idx = 0; idx < plans.size(); ++idx) {
    if (!has_active[idx]) continue;
    const int slots = final_slot - active[idx].start + 1;
    result.codes.push_back({plans[idx].sched->request_index, slots, 0,
                            CodeOutcome::TimedOut});
    if (sink.metrics) sink.metrics->count("sim.timeouts");
    if (sink.trace)
      sink.trace->record(obs::Event::timeout(
          final_slot, plans[idx].sched->request_index, slots));
  }
  return result;
}

}  // namespace surfnet::netsim
