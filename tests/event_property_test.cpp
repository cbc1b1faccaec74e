// Extended differential campaign: simulate_surfnet, which skips idle slots
// and keeps lazy pools, must reproduce the every-slot oracle
// (detail::simulate_surfnet_every_slot) bitwise — SimulationResult and
// post-run RNG stream — across randomized fault plans, recovery policies,
// entanglement rates (integral and fractional), schedules, and oracle
// observation modes. Each failing case prints a SURFNET_PROP_SEED that
// replays it in isolation.

#include "proptest.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/sim_internal.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet {
namespace {

using netsim::FaultEvent;
using netsim::FaultKind;
using netsim::FaultPlan;
using netsim::Topology;

/// Ring fixture shared with the netsim tests: user(0) - sw(1) - server(2)
/// - sw(3) - user(4), bypass sw(5) between 1 and 3.
Topology ring_topology() {
  std::vector<netsim::Node> nodes(6);
  nodes[1] = {netsim::NodeRole::Switch, 1000};
  nodes[2] = {netsim::NodeRole::Server, 1000};
  nodes[3] = {netsim::NodeRole::Switch, 1000};
  nodes[5] = {netsim::NodeRole::Switch, 1000};
  std::vector<netsim::Fiber> fibers{{0, 1, 0.95, 50}, {1, 2, 0.95, 50},
                                    {2, 3, 0.95, 50}, {3, 4, 0.95, 50},
                                    {1, 5, 0.95, 50}, {5, 3, 0.95, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

netsim::Schedule random_schedule(util::Rng& rng) {
  netsim::Schedule schedule;
  const int requests = proptest::chance(rng, 0.7) ? 1 : 2;
  for (int r = 0; r < requests; ++r) {
    netsim::ScheduledRequest s;
    s.request_index = r;
    s.codes = proptest::int_in(rng, 1, 6);
    s.support_path = {0, 1, 2, 3, 4};
    if (proptest::chance(rng, 0.75)) s.core_path = {0, 1, 2, 3, 4};
    if (proptest::chance(rng, 0.5)) s.ec_servers = {2};
    schedule.requested_codes += s.codes;
    schedule.scheduled.push_back(s);
  }
  return schedule;
}

FaultPlan random_fault_plan(util::Rng& rng, const Topology& topo) {
  FaultPlan plan;
  const int scripted = proptest::int_in(rng, 0, 6);
  for (int i = 0; i < scripted; ++i) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(proptest::int_in(rng, 0, 3));
    event.slot = proptest::int_in(rng, 0, 400);
    event.duration = proptest::int_in(rng, 1, 300);
    switch (event.kind) {
      case FaultKind::FiberCut:
      case FaultKind::EntanglementDegradation:
        event.target = proptest::int_in(rng, 0, topo.num_fibers() - 1);
        break;
      case FaultKind::NodeOutage:
        event.target = proptest::int_in(rng, 1, topo.num_nodes() - 1);
        break;
      case FaultKind::DecodeStall:
        event.target = -1;
        break;
    }
    // Mix factors that keep the degraded rate integral (0, 1) with ones
    // that make it fractional — the latter exercises the per-slot draw
    // preservation inside degradation windows.
    event.magnitude =
        event.kind == FaultKind::EntanglementDegradation
            ? proptest::pick(rng,
                             std::vector<double>{0.0, 0.25, 0.3, 0.5, 1.0})
            : 1.0;
    plan.scripted.push_back(event);
  }
  // Stochastic processes force the engine into dense mode; keep a healthy
  // share of scripted-only plans so skip mode is exercised as often.
  if (proptest::chance(rng, 0.35))
    plan.stochastic.fiber_cut_rate = proptest::real_in(rng, 0.0, 0.05);
  if (proptest::chance(rng, 0.2)) {
    plan.stochastic.correlated_cut_rate = proptest::real_in(rng, 0.0, 0.02);
    plan.stochastic.correlated_group_size = proptest::int_in(rng, 1, 4);
  }
  if (proptest::chance(rng, 0.2))
    plan.stochastic.node_outage_rate = proptest::real_in(rng, 0.0, 0.01);
  if (proptest::chance(rng, 0.25)) {
    plan.stochastic.degradation_rate = proptest::real_in(rng, 0.0, 0.05);
    plan.stochastic.degradation_factor = proptest::real_in(rng, 0.0, 1.0);
  }
  if (proptest::chance(rng, 0.2))
    plan.stochastic.decode_stall_rate = proptest::real_in(rng, 0.0, 0.02);
  return plan;
}

netsim::SimulationParams random_sim_params(util::Rng& rng,
                                           const Topology& topo) {
  netsim::SimulationParams params;
  params.max_slots = proptest::pick(rng, std::vector<int>{60, 400, 2500});
  params.entanglement_rate =
      proptest::pick(rng, std::vector<double>{0.0, 1.0, 2.5, 3.0, 6.0});
  params.faults = random_fault_plan(rng, topo);
  if (proptest::chance(rng, 0.5)) {
    params.recovery.max_swap_retries = proptest::int_in(rng, 0, 4);
    params.recovery.escalate_after_reroutes = proptest::int_in(rng, 0, 3);
    params.recovery.code_timeout_slots =
        proptest::chance(rng, 0.4) ? proptest::int_in(rng, 40, 600) : 0;
  }
  if (proptest::chance(rng, 0.25)) params.recovery.local_reroute = false;
  if (proptest::chance(rng, 0.4))
    params.swap_success = proptest::real_in(rng, 0.5, 1.0);
  return params;
}

std::string dump(const netsim::SimulationResult& r) {
  std::ostringstream out;
  out << r.codes_scheduled << '/' << r.codes_delivered << '/'
      << r.codes_succeeded << '/' << r.total_latency << '\n';
  for (const auto& c : r.codes)
    out << c.request << ' ' << c.slots << ' ' << c.corrections << ' '
        << static_cast<int>(c.outcome) << '\n';
  return out.str();
}

struct RunOutput {
  std::string result;
  std::vector<std::uint64_t> rng_tail;
};

RunOutput run_engine(bool every_slot, const Topology& topo,
                     const netsim::Schedule& schedule,
                     netsim::SimulationParams params, std::uint64_t seed,
                     bool observed) {
  const decoder::SurfNetDecoder dec;
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  if (observed) params.sink = {&metrics, &trace};
  util::Rng rng(seed);
  const auto result =
      every_slot ? netsim::detail::simulate_surfnet_every_slot(
                       topo, schedule, params, dec, rng)
                 : netsim::simulate_surfnet(topo, schedule, params, dec, rng);
  RunOutput out;
  out.result = dump(result);
  for (int i = 0; i < 4; ++i) out.rng_tail.push_back(rng());
  return out;
}

// P: for any (schedule, fault plan, policy, rate, seed), the engine run
// unobserved — free to skip slots and keep lazy pools — produces the same
// result and RNG stream as the every-slot oracle, observed or not (a sink
// never changes either).
TEST(EventEngineProperty, MatchesSlotOracleBitwise) {
  const auto topo = ring_topology();
  proptest::Config config;
  config.iterations = 300;
  proptest::check("event_engine_differential", config, [&](util::Rng& rng) {
    const auto schedule = random_schedule(rng);
    const auto params = random_sim_params(rng, topo);
    const bool observed = proptest::chance(rng, 0.35);
    const std::uint64_t seed = rng();

    const auto oracle =
        run_engine(true, topo, schedule, params, seed, observed);
    const auto engine =
        run_engine(false, topo, schedule, params, seed, /*observed=*/false);
    ASSERT_EQ(oracle.result, engine.result);
    ASSERT_EQ(oracle.rng_tail, engine.rng_tail);
  });
}

}  // namespace
}  // namespace surfnet
