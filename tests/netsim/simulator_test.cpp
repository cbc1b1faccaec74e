#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "decoder/surfnet_decoder.h"
#include "netsim/schedule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// Line network: user(0) - switch(1) - server(2) - switch(3) - user(4).
Topology line_topology(double fidelity, int pair_capacity = 50) {
  std::vector<Node> nodes(5);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers;
  for (int i = 0; i < 4; ++i)
    fibers.push_back({i, i + 1, fidelity, pair_capacity});
  return Topology(std::move(nodes), std::move(fibers));
}

Schedule line_schedule(int codes, bool dual, bool with_ec = true) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  if (with_ec) s.ec_servers = {2};
  schedule.scheduled.push_back(s);
  return schedule;
}

TEST(Simulator, EmptyScheduleIsNoop) {
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(1);
  const auto result =
      simulate_surfnet(topo, Schedule{}, SimulationParams{}, dec, rng);
  EXPECT_EQ(result.codes_scheduled, 0);
  EXPECT_EQ(result.codes_delivered, 0);
  EXPECT_DOUBLE_EQ(result.fidelity(), 0.0);
}

TEST(Simulator, PerfectFibersGivePerfectFidelity) {
  const auto topo = line_topology(1.0);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(2);
  SimulationParams params;
  params.loss_per_hop = 0.0;
  params.teleport_op_noise = 0.0;
  const auto result =
      simulate_surfnet(topo, line_schedule(8, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 8);
  EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
}

TEST(Simulator, AllCodesDeliveredAndLatencyPositive) {
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(3);
  const auto result = simulate_surfnet(topo, line_schedule(5, true),
                                       SimulationParams{}, dec, rng);
  EXPECT_EQ(result.codes_scheduled, 5);
  EXPECT_EQ(result.codes_delivered, 5);
  // 4 hops at one per slot is the lower bound for the support part.
  EXPECT_GE(result.avg_latency(), 4.0);
}

TEST(Simulator, VeryNoisyFibersCorruptCodes) {
  const auto topo = line_topology(0.45);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(4);
  SimulationParams params;
  params.noise_scale = 1.0;  // full infidelity as Pauli noise
  params.loss_per_hop = 0.3;
  const auto result =
      simulate_surfnet(topo, line_schedule(30, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 30);
  EXPECT_LT(result.fidelity(), 0.6);
}

TEST(Simulator, RawModeRunsWithoutEntanglement) {
  const auto topo = line_topology(0.95, /*pair_capacity=*/0);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(5);
  SimulationParams params;
  params.entanglement_rate = 0.0;  // raw mode must not need pairs
  const auto result = simulate_surfnet(topo, line_schedule(4, false),
                                       params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 4);
}

TEST(Simulator, DualChannelStarvesWithoutEntanglement) {
  const auto topo = line_topology(0.95, /*pair_capacity=*/0);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(6);
  SimulationParams params;
  params.entanglement_rate = 0.0;
  params.max_slots = 300;
  const auto result = simulate_surfnet(topo, line_schedule(2, true),
                                       params, dec, rng);
  // The core part can never move: nothing is delivered before the cap.
  EXPECT_EQ(result.codes_delivered, 0);
}

TEST(Simulator, ErrorCorrectionAtServerImprovesFidelity) {
  // Same path, with and without the mid-path EC server: correcting at the
  // server splits the accumulated noise and must improve fidelity.
  const auto topo = line_topology(0.88);
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.noise_scale = 0.5;
  params.loss_per_hop = 0.05;
  util::Rng rng1(7), rng2(7);
  const auto with_ec = simulate_surfnet(topo, line_schedule(400, true, true),
                                        params, dec, rng1);
  const auto without_ec = simulate_surfnet(
      topo, line_schedule(400, true, false), params, dec, rng2);
  EXPECT_GT(with_ec.fidelity(), without_ec.fidelity() + 0.02);
}

TEST(Simulator, CoreHalvingBeatsRaw) {
  // Identical path and noise: the dual-channel design (purified Core,
  // loss-free teleportation) must outperform sending everything raw.
  const auto topo = line_topology(0.85);
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.noise_scale = 0.5;
  params.loss_per_hop = 0.08;
  params.teleport_op_noise = 0.005;
  util::Rng rng1(8), rng2(8);
  const auto dual = simulate_surfnet(topo, line_schedule(400, true), params,
                                     dec, rng1);
  const auto raw = simulate_surfnet(topo, line_schedule(400, false), params,
                                    dec, rng2);
  EXPECT_GT(dual.fidelity(), raw.fidelity() + 0.02);
}

TEST(Simulator, PurificationDeliversWithBudget) {
  const auto topo = line_topology(0.9);
  util::Rng rng(9);
  SimulationParams params;
  const auto result = simulate_purification(topo, line_schedule(5, true), 2,
                                            params, rng);
  EXPECT_EQ(result.codes_delivered, 5);
  EXPECT_GT(result.fidelity(), 0.5);
  EXPECT_GE(result.avg_latency(), 4.0);
}

TEST(Simulator, PurificationMoreRoundsHigherFidelity) {
  const auto topo = line_topology(0.8);
  SimulationParams params;
  params.teleport_op_noise = 0.0;
  double prev = 0.0;
  for (int n : {0, 2, 9}) {
    util::Rng rng(10);
    const auto result = simulate_purification(
        topo, line_schedule(2000, true), n, params, rng);
    EXPECT_GE(result.fidelity(), prev - 0.02) << "N=" << n;
    prev = result.fidelity();
  }
}

TEST(Simulator, LatencyGrowsWithScarcity) {
  // Fewer pairs per slot means the core waits longer.
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  double fast_latency = 0.0, slow_latency = 0.0;
  {
    util::Rng rng(11);
    SimulationParams params;
    params.entanglement_rate = 8.0;
    fast_latency = simulate_surfnet(topo, line_schedule(20, true), params,
                                    dec, rng)
                       .avg_latency();
  }
  {
    util::Rng rng(11);
    SimulationParams params;
    params.entanglement_rate = 0.8;
    slow_latency = simulate_surfnet(topo, line_schedule(20, true), params,
                                    dec, rng)
                       .avg_latency();
  }
  EXPECT_GT(slow_latency, fast_latency);
}

TEST(Simulator, RejectsBrokenSchedules) {
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(12);
  Schedule schedule;
  schedule.requested_codes = 1;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = 1;
  s.support_path = {0, 2, 4};  // non-adjacent hops
  schedule.scheduled.push_back(s);
  EXPECT_THROW(
      simulate_surfnet(topo, schedule, SimulationParams{}, dec, rng),
      std::invalid_argument);

  Schedule bad_ec = line_schedule(1, true);
  bad_ec.scheduled[0].ec_servers = {3};  // not a barrier on... node 3 is on
  bad_ec.scheduled[0].ec_servers = {1};  // switch 1 is on the path; allowed
  // EC server not on the path at all:
  bad_ec.scheduled[0].ec_servers = {42};
  EXPECT_THROW(
      simulate_surfnet(topo, bad_ec, SimulationParams{}, dec, rng),
      std::invalid_argument);
}

TEST(Simulator, RejectsNegativeCodeCounts) {
  // Summed as a pending count, a {3, -2} schedule would read as one code.
  // Every design rejects it, naming the field, and still skips a request
  // with 0 codes.
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  for (const auto design : {NetworkDesign::SurfNet, NetworkDesign::Raw,
                            NetworkDesign::Purification2}) {
    const std::string where(to_string(design));
    auto schedule = line_schedule(3, design != NetworkDesign::Raw);
    schedule.scheduled.push_back(schedule.scheduled[0]);
    schedule.scheduled[1].request_index = 1;
    schedule.scheduled[1].codes = -2;
    util::Rng rng(31);
    try {
      make_simulator(design, dec)
          ->run(topo, schedule, SimulationParams{}, rng);
      ADD_FAILURE() << where << ": accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("codes"), std::string::npos)
          << where << ": " << err.what();
    }

    schedule.scheduled[1].codes = 0;
    const auto result =
        make_simulator(design, dec)->run(topo, schedule, SimulationParams{},
                                         rng);
    EXPECT_EQ(result.codes_scheduled, 3) << where;
    EXPECT_EQ(result.codes_delivered, 3) << where;
    ASSERT_EQ(result.codes.size(), 3u) << where;
    for (const auto& record : result.codes)
      EXPECT_EQ(record.request, 0) << where;
  }
}

TEST(Simulator, RejectsNegativePurificationRounds) {
  // A hop needs 1 + extra_pairs pairs: at -1 a bare qubit would cross empty
  // fibers, and below -1 a hop would add pairs to its pool past the
  // fiber's capacity. N = 0, no purification, still runs.
  const auto topo = line_topology(0.95);
  const auto schedule = line_schedule(3, true);
  for (const int extra_pairs : {-1, -3}) {
    util::Rng rng(5);
    try {
      simulate_purification(topo, schedule, extra_pairs, SimulationParams{},
                            rng);
      ADD_FAILURE() << "extra_pairs " << extra_pairs << " accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("extra_pairs"),
                std::string::npos)
          << err.what();
    }
  }
  util::Rng rng(5);
  EXPECT_EQ(simulate_purification(topo, schedule, 0, SimulationParams{}, rng)
                .codes_scheduled,
            3);
}

TEST(RandomRequests, RejectsNegativeCount) {
  // reserve(-1) would throw std::length_error without naming the count.
  const auto topo = line_topology(0.95);
  util::Rng rng(6);
  try {
    random_requests(topo, -1, 3, rng);
    ADD_FAILURE() << "count -1 accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("count"), std::string::npos)
        << err.what();
  }
  EXPECT_TRUE(random_requests(topo, 0, 3, rng).empty());
}

/// Expects both simulators, on the 5-node line with one dual-channel code
/// and max_slots 200, to reject each of `values` written by `set`, with a
/// message naming `field`.
template <typename T, typename Set>
void expect_rejected(const std::string& field, std::vector<T> values,
                     Set set) {
  const auto topo = line_topology(0.95);
  const auto schedule = line_schedule(1, /*dual=*/true);
  const decoder::SurfNetDecoder dec;
  for (const T value : values) {
    SimulationParams params;
    params.max_slots = 200;
    set(params, value);
    for (const bool purification : {false, true}) {
      const std::string where =
          field + " = " + std::to_string(value) + " in " +
          (purification ? "simulate_purification" : "simulate_surfnet");
      util::Rng rng(5);
      try {
        if (purification)
          simulate_purification(topo, schedule, 1, params, rng);
        else
          simulate_surfnet(topo, schedule, params, dec, rng);
        ADD_FAILURE() << where << ": accepted";
      } catch (const std::invalid_argument& err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << where << ": " << err.what();
      }
    }
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimulationParamsValidation, RejectsSegmentBelowOne) {
  expect_rejected("opportunistic_segment", std::vector<int>{0, -1},
                  [](SimulationParams& p, int v) {
                    p.opportunistic_segment = v;
                  });
}

TEST(SimulationParamsValidation, RejectsNegativeOrNonFiniteEntanglementRate) {
  expect_rejected(
      "entanglement_rate", std::vector<double>{-3.0, kNaN, kInf},
      [](SimulationParams& p, double v) { p.entanglement_rate = v; });
}

TEST(SimulationParamsValidation, RejectsSwapSuccessOutsideUnitInterval) {
  expect_rejected("swap_success", std::vector<double>{-0.1, 1.5, kNaN},
                  [](SimulationParams& p, double v) { p.swap_success = v; });
}

TEST(SimulationParamsValidation, RejectsLossPerHopOutsideUnitInterval) {
  expect_rejected("loss_per_hop", std::vector<double>{-0.1, 1.5, kNaN},
                  [](SimulationParams& p, double v) { p.loss_per_hop = v; });
}

TEST(SimulationParamsValidation, RejectsNegativeOrNonFiniteNoiseScale) {
  expect_rejected("noise_scale", std::vector<double>{-0.5, kNaN, kInf},
                  [](SimulationParams& p, double v) { p.noise_scale = v; });
}

TEST(SimulationParamsValidation, RejectsTeleportOpNoiseOutsideHalfOpenRange) {
  expect_rejected(
      "teleport_op_noise", std::vector<double>{-0.1, 1.0, kNaN},
      [](SimulationParams& p, double v) { p.teleport_op_noise = v; });
}

TEST(SimulationParamsValidation, RejectsNegativeMaxSlots) {
  expect_rejected("max_slots", std::vector<int>{-1},
                  [](SimulationParams& p, int v) { p.max_slots = v; });
}

TEST(SimulationParamsValidation, AcceptsEveryBoundaryValue) {
  const auto topo = line_topology(0.95);
  const auto schedule = line_schedule(1, /*dual=*/true);
  const decoder::SurfNetDecoder dec;
  auto expect_accepted = [&](const SimulationParams& params) {
    util::Rng rng(5);
    EXPECT_NO_THROW(simulate_surfnet(topo, schedule, params, dec, rng));
    EXPECT_NO_THROW(simulate_purification(topo, schedule, 1, params, rng));
  };
  SimulationParams params;
  params.max_slots = 200;
  params.opportunistic_segment = 1;
  params.entanglement_rate = 0.0;
  params.swap_success = 0.0;
  params.loss_per_hop = 0.0;
  params.noise_scale = 0.0;
  params.teleport_op_noise = 0.0;
  expect_accepted(params);
  params.swap_success = 1.0;
  params.loss_per_hop = 1.0;
  params.max_slots = 0;
  expect_accepted(params);
}

TEST(Simulator, PerCodeRecordsReconcileWithTotals) {
  const auto topo = line_topology(0.9);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(21);
  SimulationParams params;
  params.noise_scale = 0.6;
  const auto result = simulate_surfnet(topo, line_schedule(40, true), params,
                                       dec, rng);
  int delivered = 0, succeeded = 0;
  double latency = 0.0;
  for (const auto& record : result.codes) {
    EXPECT_EQ(record.request, 0);
    EXPECT_GT(record.slots, 0);
    if (record.outcome != CodeOutcome::TimedOut) {
      ++delivered;
      latency += record.slots;
      EXPECT_GT(record.corrections, 0);  // at least the final readout
      if (record.outcome == CodeOutcome::Succeeded) ++succeeded;
    }
  }
  EXPECT_EQ(delivered, result.codes_delivered);
  EXPECT_EQ(succeeded, result.codes_succeeded);
  EXPECT_DOUBLE_EQ(latency, result.total_latency);
}

TEST(Simulator, PurificationRecordsReconcileWithTotals) {
  const auto topo = line_topology(0.85);
  util::Rng rng(22);
  SimulationParams params;
  const auto result = simulate_purification(topo, line_schedule(30, true), 1,
                                            params, rng);
  int delivered = 0, succeeded = 0;
  for (const auto& record : result.codes) {
    if (record.outcome != CodeOutcome::TimedOut) {
      ++delivered;
      if (record.outcome == CodeOutcome::Succeeded) ++succeeded;
    }
  }
  EXPECT_EQ(delivered, result.codes_delivered);
  EXPECT_EQ(succeeded, result.codes_succeeded);
}

TEST(Simulator, TimedOutCodesGetRecordsToo) {
  const auto topo = line_topology(0.95, /*pair_capacity=*/0);
  const decoder::SurfNetDecoder dec;
  util::Rng rng(23);
  SimulationParams params;
  params.entanglement_rate = 0.0;
  params.max_slots = 100;
  const auto result = simulate_surfnet(topo, line_schedule(2, true), params,
                                       dec, rng);
  EXPECT_EQ(result.codes_delivered, 0);
  ASSERT_FALSE(result.codes.empty());
  for (const auto& record : result.codes) {
    EXPECT_EQ(record.outcome, CodeOutcome::TimedOut);
    EXPECT_LE(record.slots, params.max_slots);
  }
}

TEST(Simulator, TimeoutBudgetPreemptsTheStepOfItsLastSlot) {
  // A code delivered after L slots without a budget times out, with L - 1
  // slots, under a budget of L - 1: the loop checks the budget before the
  // code's step. A budget of L still lets it arrive.
  const auto topo = line_topology(0.95);
  const decoder::SurfNetDecoder dec;
  for (const auto design : {NetworkDesign::SurfNet, NetworkDesign::Raw,
                            NetworkDesign::Purification1}) {
    const std::string where(to_string(design));
    const auto schedule = line_schedule(1, design != NetworkDesign::Raw);
    auto run_with_budget = [&](int budget) {
      SimulationParams params;
      params.recovery.code_timeout_slots = budget;
      util::Rng rng(41);
      const auto result =
          make_simulator(design, dec)->run(topo, schedule, params, rng);
      EXPECT_EQ(result.codes.size(), 1u) << where;
      return result.codes.at(0);
    };
    const auto free_run = run_with_budget(0);
    ASSERT_NE(free_run.outcome, CodeOutcome::TimedOut) << where;
    const int slots = free_run.slots;
    ASSERT_GT(slots, 1) << where;
    const auto cut = run_with_budget(slots - 1);
    EXPECT_EQ(cut.outcome, CodeOutcome::TimedOut) << where;
    EXPECT_EQ(cut.slots, slots - 1) << where;
    const auto in_time = run_with_budget(slots);
    EXPECT_EQ(in_time.outcome, free_run.outcome) << where;
    EXPECT_EQ(in_time.slots, slots) << where;
  }
}

TEST(Simulator, InterfaceSelectsModelByDesign) {
  // SurfNet and Raw run simulate_surfnet (Raw on its support-only
  // schedule), the purification designs simulate_purification with their
  // round count: every record and the RNG stream left behind agree.
  const decoder::SurfNetDecoder dec;
  const auto topo = line_topology(0.95);
  SimulationParams params;
  params.entanglement_rate = 3.5;
  auto expect_same = [](const SimulationResult& a, util::Rng& rng_a,
                        const SimulationResult& b, util::Rng& rng_b,
                        NetworkDesign design) {
    SCOPED_TRACE(std::string(to_string(design)));
    EXPECT_EQ(a.codes_scheduled, b.codes_scheduled);
    EXPECT_EQ(a.codes_delivered, b.codes_delivered);
    EXPECT_EQ(a.codes_succeeded, b.codes_succeeded);
    EXPECT_EQ(a.total_latency, b.total_latency);
    ASSERT_EQ(a.codes.size(), b.codes.size());
    for (std::size_t i = 0; i < a.codes.size(); ++i) {
      EXPECT_EQ(a.codes[i].request, b.codes[i].request);
      EXPECT_EQ(a.codes[i].slots, b.codes[i].slots);
      EXPECT_EQ(a.codes[i].corrections, b.codes[i].corrections);
      EXPECT_EQ(a.codes[i].outcome, b.codes[i].outcome);
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rng_a(), rng_b());
  };
  for (const auto design :
       {NetworkDesign::SurfNet, NetworkDesign::Raw,
        NetworkDesign::Purification1, NetworkDesign::Purification2,
        NetworkDesign::Purification9}) {
    const auto schedule = line_schedule(6, design != NetworkDesign::Raw);
    const int rounds = purification_rounds(design);
    util::Rng rng_iface(24), rng_direct(24);
    const auto via_iface =
        make_simulator(design, dec)->run(topo, schedule, params, rng_iface);
    const auto direct =
        rounds > 0
            ? simulate_purification(topo, schedule, rounds, params,
                                    rng_direct)
            : simulate_surfnet(topo, schedule, params, dec, rng_direct);
    expect_same(via_iface, rng_iface, direct, rng_direct, design);
  }
}

TEST(Simulator, DesignNamesAndPurificationRounds) {
  EXPECT_EQ(to_string(NetworkDesign::SurfNet), "SurfNet");
  EXPECT_EQ(purification_rounds(NetworkDesign::SurfNet), 0);
  EXPECT_EQ(purification_rounds(NetworkDesign::Purification1), 1);
  EXPECT_EQ(purification_rounds(NetworkDesign::Purification2), 2);
  EXPECT_EQ(purification_rounds(NetworkDesign::Purification9), 9);
}

TEST(Simulator, TraceEventsReconcileExactlyWithResult) {
  // Acceptance check: on the paper's d=4 code every decode, delivery, and
  // timeout in the event trace matches the SimulationResult exactly, and
  // attaching the sink does not change the simulation itself.
  const auto topo = line_topology(0.9);
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.code_distance = 4;
  params.noise_scale = 0.6;

  util::Rng bare_rng(26);
  const auto bare = simulate_surfnet(topo, line_schedule(60, true), params,
                                     dec, bare_rng);

  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  params.sink = {&metrics, &trace};
  util::Rng rng(26);
  const auto result = simulate_surfnet(topo, line_schedule(60, true), params,
                                       dec, rng);

  // Identical RNG consumption: the traced run reproduces the bare run.
  EXPECT_EQ(result.codes_delivered, bare.codes_delivered);
  EXPECT_EQ(result.codes_succeeded, bare.codes_succeeded);
  EXPECT_DOUBLE_EQ(result.total_latency, bare.total_latency);

  int decode_events = 0, decode_errors = 0;
  int delivered_events = 0, success_outcomes = 0, timeout_events = 0;
  int corrections_from_records = 0;
  for (const auto& event : trace.events()) {
    switch (event.kind) {
      case obs::EventKind::Decode:
        ++decode_events;
        if (event.flag) ++decode_errors;
        break;
      case obs::EventKind::Delivered:
        ++delivered_events;
        if (!event.flag) ++success_outcomes;
        break;
      case obs::EventKind::Timeout:
        ++timeout_events;
        break;
      default:
        break;
    }
  }
  for (const auto& record : result.codes)
    corrections_from_records += record.corrections;

  EXPECT_EQ(delivered_events, result.codes_delivered);
  EXPECT_EQ(success_outcomes, result.codes_succeeded);
  EXPECT_EQ(timeout_events,
            static_cast<int>(result.codes.size()) - result.codes_delivered);
  // Every correction is one decode event, and the metrics plane agrees.
  EXPECT_EQ(decode_events, corrections_from_records);
  EXPECT_EQ(decode_events, metrics.counter("sim.decodes"));
  EXPECT_EQ(decode_errors, metrics.counter("sim.decode_logical_errors"));
  EXPECT_EQ(metrics.counter("sim.delivered"), result.codes_delivered);
  EXPECT_EQ(metrics.counter("sim.succeeded"), result.codes_succeeded);
}

TEST(Schedule, ThroughputDefinition) {
  Schedule schedule;
  schedule.requested_codes = 10;
  ScheduledRequest s;
  s.codes = 4;
  schedule.scheduled.push_back(s);
  s.codes = 2;
  schedule.scheduled.push_back(s);
  EXPECT_EQ(schedule.scheduled_codes(), 6);
  EXPECT_DOUBLE_EQ(schedule.throughput(), 0.6);
}

TEST(Requests, RandomRequestsAreValid) {
  util::Rng rng(13);
  TopologySpec spec;
  const auto topo = make_random_topology(spec, rng);
  const auto requests = random_requests(topo, 50, 4, rng);
  ASSERT_EQ(requests.size(), 50u);
  for (const auto& r : requests) {
    EXPECT_TRUE(topo.is_user(r.src));
    EXPECT_TRUE(topo.is_user(r.dst));
    EXPECT_NE(r.src, r.dst);
    EXPECT_GE(r.codes, 1);
    EXPECT_LE(r.codes, 4);
  }
}

}  // namespace
}  // namespace surfnet::netsim
