// Tests of the online-execution extensions (paper Sec. V-B): fiber
// failures with local recovery paths, probabilistic entanglement swapping,
// and per-request adaptive code distances.

#include <gtest/gtest.h>

#include "decoder/surfnet_decoder.h"
#include "netsim/simulator.h"
#include "util/rng.h"

namespace surfnet::netsim {
namespace {

/// Ring of switches with one server, giving every route an alternative:
/// user(0) - sw(1) - server(2) - sw(3) - user(4), plus a bypass
/// sw(5) connecting 1 and 3 directly around the server.
Topology ring_topology(double fidelity = 0.95) {
  std::vector<Node> nodes(6);
  nodes[1] = {NodeRole::Switch, 1000};
  nodes[2] = {NodeRole::Server, 1000};
  nodes[3] = {NodeRole::Switch, 1000};
  nodes[5] = {NodeRole::Switch, 1000};
  std::vector<Fiber> fibers{{0, 1, fidelity, 50}, {1, 2, fidelity, 50},
                            {2, 3, fidelity, 50}, {3, 4, fidelity, 50},
                            {1, 5, fidelity, 50}, {5, 3, fidelity, 50}};
  return Topology(std::move(nodes), std::move(fibers));
}

Schedule one_request(int codes, bool dual, std::vector<int> ec = {}) {
  Schedule schedule;
  schedule.requested_codes = codes;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = codes;
  s.support_path = {0, 1, 2, 3, 4};
  if (dual) s.core_path = {0, 1, 2, 3, 4};
  s.ec_servers = std::move(ec);
  schedule.scheduled.push_back(s);
  return schedule;
}

TEST(Failures, RecoveryReroutesAroundDeadFiber) {
  // Heavy failure rate on a ring: with recovery, codes still arrive.
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.faults = FaultPlan::fiber_noise(0.05, 40);
  params.max_slots = 4000;
  util::Rng rng(21);
  const auto result =
      simulate_surfnet(topo, one_request(10, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 10);
}

TEST(Failures, WithoutRecoveryCodesWaitLonger) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams base;
  base.faults = FaultPlan::fiber_noise(0.04, 50);
  base.max_slots = 20000;

  SimulationParams with = base;
  SimulationParams without = base;
  without.recovery.local_reroute = false;

  util::Rng rng1(22), rng2(22);
  const auto fast =
      simulate_surfnet(topo, one_request(30, true), with, dec, rng1);
  const auto slow =
      simulate_surfnet(topo, one_request(30, true), without, dec, rng2);
  EXPECT_EQ(fast.codes_delivered, 30);
  EXPECT_EQ(slow.codes_delivered, 30);
  EXPECT_LT(fast.avg_latency(), slow.avg_latency());
}

TEST(Failures, NoAlternativeMeansWaiting) {
  // On a pure line there is no recovery path: failures only delay.
  std::vector<Node> nodes(3);
  nodes[1] = {NodeRole::Switch, 100};
  Topology topo(std::move(nodes), {{0, 1, 0.95, 50}, {1, 2, 0.95, 50}});
  Schedule schedule;
  schedule.requested_codes = 5;
  ScheduledRequest s;
  s.request_index = 0;
  s.codes = 5;
  s.support_path = {0, 1, 2};
  schedule.scheduled.push_back(s);

  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.faults = FaultPlan::fiber_noise(0.10, 10);
  // Recovery stays on by default — there is just nothing to reroute onto.
  params.max_slots = 5000;
  util::Rng rng(23);
  const auto result = simulate_surfnet(topo, schedule, params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 5);
  EXPECT_GT(result.avg_latency(), 2.0);
}

TEST(Swapping, ZeroSuccessStarvesTheCore) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.swap_success = 0.0;
  params.max_slots = 300;
  util::Rng rng(24);
  const auto result =
      simulate_surfnet(topo, one_request(2, true), params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 0);
}

TEST(Swapping, LowerSuccessRaisesLatency) {
  const auto topo = ring_topology();
  const decoder::SurfNetDecoder dec;
  double latency[2] = {0, 0};
  int i = 0;
  for (const double p : {1.0, 0.5}) {
    SimulationParams params;
    params.swap_success = p;
    util::Rng rng(25);
    latency[i++] =
        simulate_surfnet(topo, one_request(40, true), params, dec, rng)
            .avg_latency();
  }
  EXPECT_GT(latency[1], latency[0]);
}

TEST(AdaptiveDistance, PerRequestDistanceIsHonored) {
  // A schedule that explicitly requests distance 5 must run distance-5
  // codes (9 Core qubits consume 9 pairs per fiber per jump).
  const auto topo = ring_topology(1.0);
  const decoder::SurfNetDecoder dec;
  SimulationParams params;
  params.loss_per_hop = 0.0;
  params.teleport_op_noise = 0.0;
  auto schedule = one_request(3, true);
  schedule.scheduled[0].code_distance = 5;
  util::Rng rng(26);
  const auto result = simulate_surfnet(topo, schedule, params, dec, rng);
  EXPECT_EQ(result.codes_delivered, 3);
  EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
}

TEST(AdaptiveDistance, MixedDistancesInOneSchedule) {
  const auto topo = ring_topology(0.95);
  const decoder::SurfNetDecoder dec;
  Schedule schedule;
  schedule.requested_codes = 4;
  for (const int d : {3, 5}) {
    ScheduledRequest s;
    s.request_index = 0;
    s.codes = 2;
    s.support_path = {0, 1, 2, 3, 4};
    s.core_path = {0, 1, 2, 3, 4};
    s.ec_servers = {2};
    s.code_distance = d;
    schedule.scheduled.push_back(s);
  }
  util::Rng rng(27);
  const auto result =
      simulate_surfnet(topo, schedule, SimulationParams{}, dec, rng);
  EXPECT_EQ(result.codes_delivered, 4);
}

}  // namespace
}  // namespace surfnet::netsim
