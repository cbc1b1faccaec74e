// Property-based invariants over randomly generated inputs, built on
// tests/proptest.h. Every failing case prints a SURFNET_PROP_SEED that
// replays it in isolation. The campaigns are labeled `extended` in CTest.

#include "proptest.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "decoder/code_trial.h"
#include "decoder/mwpm.h"
#include "decoder/surfnet_decoder.h"
#include "decoder/union_find.h"
#include "netsim/faults.h"
#include "netsim/recovery.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qec/error_model.h"
#include "routing/greedy.h"
#include "routing/router.h"
#include "routing/validate.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet {
namespace {

using netsim::FaultEvent;
using netsim::FaultInjector;
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

netsim::Schedule ring_request(util::Rng& rng) {
  netsim::Schedule schedule;
  netsim::ScheduledRequest s;
  s.request_index = 0;
  s.codes = proptest::int_in(rng, 1, 6);
  s.support_path = {0, 1, 2, 3, 4};
  if (proptest::chance(rng, 0.7)) s.core_path = {0, 1, 2, 3, 4};
  if (proptest::chance(rng, 0.5)) s.ec_servers = {2};
  schedule.requested_codes = s.codes;
  schedule.scheduled.push_back(s);
  return schedule;
}

/// Random fault plan over the ring: a handful of scripted events plus
/// moderate stochastic processes, all drawn from the case seed.
FaultPlan random_fault_plan(util::Rng& rng, const Topology& topo) {
  FaultPlan plan;
  const int scripted = proptest::int_in(rng, 0, 5);
  for (int i = 0; i < scripted; ++i) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(proptest::int_in(rng, 0, 2));
    event.slot = proptest::int_in(rng, 0, 120);
    event.duration = proptest::int_in(rng, 1, 40);
    switch (event.kind) {
      case FaultKind::FiberCut:
      case FaultKind::EntanglementDegradation:
        event.target = proptest::int_in(rng, 0, topo.num_fibers() - 1);
        break;
      case FaultKind::NodeOutage:
        event.target = proptest::int_in(rng, 1, topo.num_nodes() - 1);
        break;
    }
    event.magnitude = event.kind == FaultKind::EntanglementDegradation
                          ? proptest::real_in(rng, 0.0, 1.0)
                          : 1.0;
    plan.scripted.push_back(event);
  }
  if (proptest::chance(rng, 0.6))
    plan.stochastic.fiber_cut_rate = proptest::real_in(rng, 0.0, 0.05);
  if (proptest::chance(rng, 0.3)) {
    plan.stochastic.correlated_cut_rate = proptest::real_in(rng, 0.0, 0.02);
    plan.stochastic.correlated_group_size = proptest::int_in(rng, 1, 4);
  }
  if (proptest::chance(rng, 0.3))
    plan.stochastic.node_outage_rate = proptest::real_in(rng, 0.0, 0.01);
  if (proptest::chance(rng, 0.3)) {
    plan.stochastic.degradation_rate = proptest::real_in(rng, 0.0, 0.05);
    plan.stochastic.degradation_factor = proptest::real_in(rng, 0.0, 1.0);
  }
  return plan;
}

netsim::SimulationParams random_sim_params(util::Rng& rng,
                                           const Topology& topo) {
  netsim::SimulationParams params;
  params.max_slots = 2500;
  params.faults = random_fault_plan(rng, topo);
  if (proptest::chance(rng, 0.5))
    params.recovery.code_timeout_slots =
        proptest::chance(rng, 0.3) ? proptest::int_in(rng, 100, 600) : 0;
  if (proptest::chance(rng, 0.3))
    params.swap_success = proptest::real_in(rng, 0.5, 1.0);
  return params;
}

// P1: every decoder always emits a syndrome-reproducing correction, for
// random distances, noise mixes, and decoders.
TEST(Property, DecoderCorrectionsReproduceTheSyndrome) {
  const decoder::SurfNetDecoder surfnet;
  const decoder::UnionFindDecoder union_find;
  const decoder::MwpmDecoder mwpm;
  const std::vector<const decoder::Decoder*> decoders{&surfnet, &union_find,
                                                      &mwpm};
  proptest::Config config;
  config.iterations = 150;
  proptest::check("decoder_validity", config, [&](util::Rng& rng) {
    const int d = proptest::pick(rng, std::vector<int>{2, 3, 5});
    const qec::SurfaceCodeLattice lattice(d);
    const auto profile = qec::NoiseProfile::uniform(
        lattice.num_data_qubits(), proptest::real_in(rng, 0.0, 0.15),
        proptest::real_in(rng, 0.0, 0.30));
    const auto* dec = proptest::pick(rng, decoders);
    const auto result = decoder::decode_sample(
        lattice, qec::sample_errors(profile, rng),
        profile.component_error_prob(), *dec);
    EXPECT_TRUE(result.z_graph.valid) << dec->name() << " d=" << d;
    EXPECT_TRUE(result.x_graph.valid) << dec->name() << " d=" << d;
  });
}

// P2: both routers only emit schedules satisfying the integer program's
// invariants (Eqs. (1)-(6)) on random topologies and request mixes.
TEST(Property, RoutedSchedulesSatisfyTheProgramInvariants) {
#if !SURFNET_CHECKS
  GTEST_SKIP() << "contracts compiled out";
#endif
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  proptest::Config config;
  config.iterations = 60;
  proptest::check("schedule_invariants", config, [&](util::Rng& rng) {
    netsim::TopologySpec spec;
    spec.num_nodes = proptest::int_in(rng, 16, 28);
    spec.num_servers = proptest::int_in(rng, 2, 4);
    spec.num_switches = proptest::int_in(rng, 5, 9);
    const auto topo = netsim::make_random_topology(spec, rng);
    const auto requests = netsim::random_requests(
        topo, proptest::int_in(rng, 1, 6), proptest::int_in(rng, 1, 4), rng);
    routing::RoutingParams params;
    params.core_noise_threshold = proptest::real_in(rng, 0.3, 0.7);
    params.total_noise_threshold =
        params.core_noise_threshold + proptest::real_in(rng, 0.0, 0.3);

    const auto greedy = routing::route_greedy(topo, requests, params, rng);
    EXPECT_NO_THROW(routing::check_schedule_invariants(topo, requests,
                                                       params, greedy));
    const auto lp = routing::route(topo, requests, params, rng);
    if (lp.status == routing::LpStatus::Optimal) {
      EXPECT_NO_THROW(routing::check_schedule_invariants(
          topo, requests, params, lp.schedule));
    }
  });
}

// P3: a (seed, FaultPlan) pair replays bitwise: identical results,
// identical traces, identical counters.
TEST(Property, FaultedSimulationsReplayBitwise) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  proptest::Config config;
  config.iterations = 40;
  proptest::check("sim_replay", config, [&](util::Rng& rng) {
    const auto schedule = ring_request(rng);
    const auto params_proto = random_sim_params(rng, topo);
    const std::uint64_t sim_seed = rng();

    auto run = [&](std::string& trace_out, obs::MetricsRegistry& metrics) {
      obs::TraceBuffer trace;
      auto params = params_proto;
      params.sink = obs::Sink{&metrics, &trace};
      util::Rng sim_rng(sim_seed);
      const auto result =
          simulate_surfnet(topo, schedule, params, dec, sim_rng);
      for (const auto& event : trace.events())
        trace_out += obs::to_jsonl(event) + "\n";
      return result;
    };
    std::string trace_a, trace_b;
    obs::MetricsRegistry metrics_a, metrics_b;
    const auto a = run(trace_a, metrics_a);
    const auto b = run(trace_b, metrics_b);
    EXPECT_EQ(a.codes_delivered, b.codes_delivered);
    EXPECT_EQ(a.codes_succeeded, b.codes_succeeded);
    EXPECT_DOUBLE_EQ(a.total_latency, b.total_latency);
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_EQ(metrics_a.counter("sim.fiber_failures"),
              metrics_b.counter("sim.fiber_failures"));
  });
}

// P4: the simulation result is self-consistent and reconciles with the
// sim.* counters: per-code records tally exactly to the headline totals.
TEST(Property, SimulationTotalsReconcileWithRecords) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  proptest::Config config;
  config.iterations = 40;
  proptest::check("sim_reconciliation", config, [&](util::Rng& rng) {
    const auto schedule = ring_request(rng);
    auto params = random_sim_params(rng, topo);
    obs::MetricsRegistry metrics;
    params.sink.metrics = &metrics;
    util::Rng sim_rng(rng());
    const auto result = simulate_surfnet(topo, schedule, params, dec,
                                         sim_rng);

    EXPECT_EQ(result.codes_scheduled, schedule.scheduled_codes());
    int delivered = 0, succeeded = 0, timed_out = 0;
    double latency = 0.0;
    for (const auto& record : result.codes) {
      EXPECT_EQ(record.request, 0);
      EXPECT_GE(record.slots, 0);
      EXPECT_GE(record.corrections, 0);
      switch (record.outcome) {
        case netsim::CodeOutcome::Succeeded:
          ++delivered;
          ++succeeded;
          latency += record.slots;
          break;
        case netsim::CodeOutcome::LogicalError:
          ++delivered;
          latency += record.slots;
          break;
        case netsim::CodeOutcome::TimedOut:
          ++timed_out;
          break;
      }
    }
    EXPECT_EQ(delivered, result.codes_delivered);
    EXPECT_EQ(succeeded, result.codes_succeeded);
    EXPECT_DOUBLE_EQ(latency, result.total_latency);
    EXPECT_LE(delivered + timed_out, result.codes_scheduled);
    EXPECT_EQ(metrics.counter("sim.delivered"), result.codes_delivered);
    EXPECT_EQ(metrics.counter("sim.succeeded"), result.codes_succeeded);
    EXPECT_EQ(metrics.counter("sim.timeouts"), timed_out);
  });
}

// P5: the injector's scripted windows are exactly the half-open union of
// the event windows, for arbitrary overlapping scripted plans.
TEST(Property, ScriptedFaultWindowsAreExact) {
  const auto topo = ring_topology();
  proptest::Config config;
  config.iterations = 120;
  proptest::check("fault_windows", config, [&](util::Rng& rng) {
    FaultPlan plan;
    plan.scripted = random_fault_plan(rng, topo).scripted;
    const int horizon = 180;

    auto covered = [&](FaultKind kind, int target, int slot) {
      for (const auto& event : plan.scripted)
        if (event.kind == kind && event.target == target &&
            event.slot <= slot && slot < event.slot + event.duration)
          return true;
      return false;
    };

    FaultInjector injector(topo, plan);
    util::Rng sim_rng(1);
    for (int slot = 0; slot < horizon; ++slot) {
      injector.begin_slot(slot, sim_rng, obs::Sink{});
      for (int e = 0; e < topo.num_fibers(); ++e) {
        EXPECT_EQ(injector.fiber_down(e, slot),
                  covered(FaultKind::FiberCut, e, slot))
            << "fiber " << e << " slot " << slot;
        const bool degraded =
            covered(FaultKind::EntanglementDegradation, e, slot);
        EXPECT_EQ(injector.entanglement_factor(e, slot) < 1.0 || degraded,
                  degraded)
            << "fiber " << e << " slot " << slot;
      }
      for (int v = 0; v < topo.num_nodes(); ++v)
        EXPECT_EQ(injector.node_down(v, slot),
                  covered(FaultKind::NodeOutage, v, slot))
            << "node " << v << " slot " << slot;
    }
  });
}

// P6: successful local reroutes always hand back a path satisfying the
// structural routing invariants (Eqs. (3)-(4)).
TEST(Property, ReroutesSatisfyTheStructuralInvariants) {
#if !SURFNET_CHECKS
  GTEST_SKIP() << "contracts compiled out";
#endif
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  const auto topo = ring_topology();
  proptest::Config config;
  config.iterations = 200;
  proptest::check("reroute_invariants", config, [&](util::Rng& rng) {
    FaultPlan plan;
    for (const int e : proptest::subset_of(rng, topo.num_fibers(), 0.35))
      plan.scripted.push_back({FaultKind::FiberCut, 0, e, 100, 1.0});
    FaultInjector injector(topo, plan);
    util::Rng sim_rng(1);
    injector.begin_slot(0, sim_rng, obs::Sink{});

    const std::vector<int> barriers{2, 4};
    std::vector<int> path{0, 1, 2, 3, 4};
    const int pos = proptest::int_in(rng, 0, 2);
    if (local_reroute(topo, injector, 0, path, pos, 2)) {
      EXPECT_NO_THROW(
          netsim::check_reroute_invariants(topo, path, pos, barriers));
    }
  });
}

}  // namespace
}  // namespace surfnet
