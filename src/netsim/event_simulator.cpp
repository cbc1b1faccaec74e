#include "netsim/event_simulator.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "netsim/sim_internal.h"

// The slot loop (DESIGN.md §7). Every slot runs one fixed phase sequence —
// entanglement generation, FaultInjector::begin_slot, pool snapshot,
// service-order shuffle, per-code processing — so a (seed, params) pair
// fixes the random-variate order, and an attached sink only reads state.

namespace surfnet::netsim {

SimulationResult simulate_surfnet(const Topology& topology,
                                  const Schedule& schedule,
                                  const SimulationParams& params,
                                  const decoder::Decoder& decoder,
                                  util::Rng& rng) {
  using namespace detail;
  validate_params(params);
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
  std::vector<int> pairs(static_cast<std::size_t>(topology.num_fibers()), 0);

  std::vector<int> codes_remaining(plans.size());
  std::vector<ActiveCode> active(plans.size());
  std::vector<char> has_active(plans.size(), 0);
  for (std::size_t i = 0; i < plans.size(); ++i)
    codes_remaining[i] = plans[i].sched->codes;

  CorrectionWorkspace decode_ws;  // reused by every correction of the run

  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  int in_flight_or_pending = result.codes_scheduled;
  int final_slot = 0;
  std::int64_t visited = 0;
  for (int slot = 0; slot < params.max_slots && in_flight_or_pending > 0;
       ++slot) {
    final_slot = slot;
    ++visited;
    rates.advance(pairs, injector, slot, rng);
    injector.begin_slot(slot, rng, sink);
    emit_pool_snapshot(pairs, slot, sink);

    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    for (std::size_t idx : order) {
      const RequestPlan& plan = plans[idx];
      if (!has_active[idx]) {
        if (codes_remaining[idx] == 0) continue;
        --codes_remaining[idx];
        active[idx] = launch(plan, slot);
        has_active[idx] = 1;
      }
      if (process_code(topology, injector, policy, params, decoder,
                       decode_ws, plan, active[idx], slot, pairs, result,
                       rng) == CodeStep::Finished) {
        has_active[idx] = 0;
        --in_flight_or_pending;
      }
    }
  }

  // Codes still in flight at the cap are censored there.
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

  if (sink.metrics) sink.metrics->count("sim.event_slots_visited", visited);
  return result;
}

}  // namespace surfnet::netsim
