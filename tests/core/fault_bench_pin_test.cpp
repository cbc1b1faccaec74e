// Fault-bench pin: the aggregates of the two benches that inject faults,
// bench_chaos and bench_failure_recovery, bit for bit. Each case builds its
// ScenarioParams the way the bench does (scenario, fault plan, max_slots,
// recovery policy) and runs core::run_trials at the benches' default seed.
// Pinned per case: the count and the bits of the mean of every
// AggregateMetrics RunningStat. Each case is one test and runs at 1 and at
// 4 threads against the same record, so a change to the fault injector,
// the recovery policy or the slot loop that moves no result keeps these
// values, and one that moves them on purpose re-records them and says why.
// On a mismatch the test prints the computed record in the form of the
// expected one.

#include <bit>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/surfnet.h"
#include "netsim/faults.h"
#include "netsim/recovery.h"
#include "util/stats.h"

namespace surfnet::core {
namespace {

// Enough trials for aggressive()'s per-code budget to show in the
// aggregates: a budget of 1000 slots instead of 1500 moves the
// correlated_cuts_aggressive record at 32 trials, but not at 8, 16 or 24.
constexpr int kTrials = 32;
constexpr std::uint64_t kSeed = 20240607;  // the benches' default --seed

struct Case {
  std::string label;
  ScenarioParams params;
};

/// bench_chaos's three campaigns, each with recovery disabled and
/// aggressive, runs capped at 2000 slots; then bench_failure_recovery's
/// independent fiber cuts lasting 30 slots at four rates, local reroutes on
/// and off (off skipped at rate 0).
std::vector<Case> fault_bench_cases() {
  netsim::StochasticFaults cuts;
  cuts.correlated_cut_rate = 0.10;
  cuts.correlated_group_size = 4;
  cuts.correlated_cut_duration = 250;

  netsim::StochasticFaults starve;
  starve.degradation_rate = 0.10;
  starve.degradation_factor = 0.05;
  starve.degradation_duration = 150;

  netsim::StochasticFaults outages;
  outages.node_outage_rate = 0.02;
  outages.node_outage_duration = 120;

  const std::pair<const char*, netsim::StochasticFaults> campaigns[] = {
      {"correlated_cuts", cuts},
      {"degradation", starve},
      {"node_outages", outages}};
  std::vector<Case> cases;
  for (const auto& [name, faults] : campaigns) {
    for (const bool aggressive : {false, true}) {
      ScenarioParams params = make_scenario(FacilityLevel::Sufficient,
                                            ConnectionQuality::Good);
      params.simulation.faults.stochastic = faults;
      params.simulation.max_slots = 2000;
      params.simulation.recovery =
          aggressive ? netsim::RecoveryPolicy::aggressive()
                     : netsim::RecoveryPolicy::disabled();
      cases.push_back({std::string("chaos_") + name +
                           (aggressive ? "_aggressive" : "_disabled"),
                       params});
    }
  }
  for (const int rate_pct : {0, 1, 3, 6}) {
    for (const bool reroute : {true, false}) {
      if (rate_pct == 0 && !reroute) continue;
      ScenarioParams params =
          make_scenario(FacilityLevel::Abundant, ConnectionQuality::Good);
      params.simulation.faults =
          netsim::FaultPlan::fiber_noise(rate_pct / 100.0, 30);
      params.simulation.recovery.local_reroute = reroute;
      cases.push_back({"failure_recovery_" + std::to_string(rate_pct) +
                           "pct_" + (reroute ? "on" : "off"),
                       params});
    }
  }
  return cases;
}

struct StatPin {
  std::size_t count;
  std::uint64_t mean_bits;
};

/// One case's aggregates: fidelity, latency, throughput and delivered.
struct AggregatePin {
  const char* label;
  StatPin fidelity;
  StatPin latency;
  StatPin throughput;
  StatPin delivered;
};

std::string format(const StatPin& p) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{%zu, 0x%016" PRIX64 "ULL}", p.count,
                p.mean_bits);
  return buf;
}

std::string format(const AggregatePin& p) {
  return "{\"" + std::string(p.label) + "\", " + format(p.fidelity) + ", " +
         format(p.latency) + ", " + format(p.throughput) + ", " +
         format(p.delivered) + "},";
}

StatPin pin(const util::RunningStat& s) {
  return {s.count(), std::bit_cast<std::uint64_t>(s.mean())};
}

// clang-format off
const AggregatePin kPins[] = {
    {"chaos_correlated_cuts_disabled", {32, 0x3FEF122F22F22F24ULL}, {32, 0x40489C547BD3601FULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FEEAF2094F20950ULL}},
    {"chaos_correlated_cuts_aggressive", {32, 0x3FEF011E11E11E12ULL}, {32, 0x4037166723897E69ULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FEFAC48676F3121ULL}},
    {"chaos_degradation_disabled", {32, 0x3FEEF60B60B60B62ULL}, {32, 0x4015629BE3ECCA70ULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FF0000000000000ULL}},
    {"chaos_degradation_aggressive", {32, 0x3FEEF60B60B60B62ULL}, {32, 0x4015629BE3ECCA70ULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FF0000000000000ULL}},
    {"chaos_node_outages_disabled", {32, 0x3FEEEB60B60B60B7ULL}, {32, 0x4042E62AE3686512ULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FF0000000000000ULL}},
    {"chaos_node_outages_aggressive", {32, 0x3FEEEB60B60B60B7ULL}, {32, 0x4037205BFB912D6FULL}, {32, 0x3FE5B78561103F8FULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_0pct_on", {32, 0x3FEF118C017A4631ULL}, {32, 0x40166142370C2AF1ULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_1pct_on", {32, 0x3FEE915743FFE2E6ULL}, {32, 0x4019BDDB69597E51ULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_1pct_off", {32, 0x3FEF014642EFD1E7ULL}, {32, 0x402855A588E4312BULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_3pct_on", {32, 0x3FEE8E40E40E40E4ULL}, {32, 0x4024C7F4D6933AA9ULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_3pct_off", {32, 0x3FEF24958F2A6705ULL}, {32, 0x4037032C9E6CCF87ULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_6pct_on", {32, 0x3FECCA9D06E7B44CULL}, {32, 0x403536557F86840BULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
    {"failure_recovery_6pct_off", {32, 0x3FEE5F90278E1BCBULL}, {32, 0x4047C694E7DA208AULL}, {32, 0x3FEF28EBD48EBD48ULL}, {32, 0x3FF0000000000000ULL}},
};
// clang-format on

class FaultBenchPin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultBenchPin, AggregatesAtOneAndFourThreads) {
  const Case c = fault_bench_cases()[GetParam()];
  for (const int threads : {1, 4}) {
    RunOptions options;
    options.seed = kSeed;
    options.threads = threads;
    const AggregateMetrics agg =
        run_trials(c.params, NetworkDesign::SurfNet, kTrials, options);
    const std::string got =
        format(AggregatePin{c.label.c_str(), pin(agg.fidelity),
                            pin(agg.latency), pin(agg.throughput),
                            pin(agg.delivered)});
    ASSERT_LT(GetParam(), std::size(kPins)) << "computed: " << got;
    EXPECT_EQ(got, format(kPins[GetParam()])) << threads << " thread(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    , FaultBenchPin,
    ::testing::Range<std::size_t>(0, fault_bench_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return fault_bench_cases()[info.param].label;
    });

}  // namespace
}  // namespace surfnet::core
