// Corruption tests for the routing validators: produce a healthy
// schedule, break one invariant at a time, and confirm the matching check
// fires. Skipped when the build compiles contracts out.

#include "routing/validate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/greedy.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::Request;
using netsim::Schedule;
using netsim::Topology;
using netsim::TopologySpec;
using util::ContractViolation;
using util::ScopedContractHandler;
using util::throw_contract_violation;

#if SURFNET_CHECKS

struct ScheduleFixture {
  ScheduleFixture() : rng(42) {
    TopologySpec spec;
    spec.num_nodes = 22;
    spec.num_servers = 3;
    spec.num_switches = 7;
    spec.storage_capacity = 100;
    spec.entanglement_capacity = 30;
    topology = netsim::make_random_topology(spec, rng);
    requests = netsim::random_requests(topology, 6, 3, rng);
    params.core_noise_threshold = 0.6;
    params.total_noise_threshold = 0.7;
    params.ec_reduction = 0.15;
    schedule = route_greedy(topology, requests, params, rng);
    // route_greedy already self-validates under SURFNET_CHECKS, so the
    // fixture's schedule is known-healthy and nonempty for these seeds.
  }

  util::Rng rng;
  Topology topology;
  std::vector<Request> requests;
  RoutingParams params;
  Schedule schedule;
};

TEST(ScheduleValidator, AcceptsHealthySchedule) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_NO_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                            fix.params, fix.schedule));
}

TEST(ScheduleValidator, RejectsRequestIndexOutOfRange) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  fix.schedule.scheduled.front().request_index = 999;
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                         fix.params, fix.schedule),
               ContractViolation);
}

TEST(ScheduleValidator, RejectsOverschedulingARequest) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& entry = fix.schedule.scheduled.front();
  const auto& req =
      fix.requests[static_cast<std::size_t>(entry.request_index)];
  entry.codes = req.codes + 1;  // more codes than the request asked for
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                         fix.params, fix.schedule),
               ContractViolation);
}

TEST(ScheduleValidator, RejectsBrokenSupportPath) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& entry = fix.schedule.scheduled.front();
  entry.support_path.pop_back();  // no longer ends at the request's dst
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                         fix.params, fix.schedule),
               ContractViolation);
}

TEST(ScheduleValidator, RejectsNonServerEcNode) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& entry = fix.schedule.scheduled.front();
  int non_server = -1;
  for (int v = 0; v < fix.topology.num_nodes(); ++v)
    if (!fix.topology.is_server(v)) non_server = v;
  ASSERT_GE(non_server, 0);
  entry.ec_servers.push_back(non_server);
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                         fix.params, fix.schedule),
               ContractViolation);
}

TEST(ScheduleValidator, RejectsCapacityOverflow) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  // Inflate both the request and the scheduled codes so the per-request
  // bound holds but the storage demand on interior nodes explodes.
  auto& entry = fix.schedule.scheduled.front();
  ASSERT_GE(entry.support_path.size(), 3u)
      << "fixture schedule has no interior node";
  auto& req = fix.requests[static_cast<std::size_t>(entry.request_index)];
  req.codes += 100000;
  fix.schedule.requested_codes += 100000;
  entry.codes += 100000;
  ScopedContractHandler scoped(throw_contract_violation);
  EXPECT_THROW(check_schedule_invariants(fix.topology, fix.requests,
                                         fix.params, fix.schedule),
               ContractViolation);
}

// Runs the schedule validator under the throwing handler and succeeds if it
// raised a violation whose message contains `text`, so that each test below
// proves that its own check fired.
::testing::AssertionResult violation_names(const ScheduleFixture& fix,
                                           const std::string& text) {
  ScopedContractHandler scoped(throw_contract_violation);
  std::string message;
  try {
    check_schedule_invariants(fix.topology, fix.requests, fix.params,
                              fix.schedule);
  } catch (const ContractViolation& violation) {
    message = violation.what();
  }
  if (message.find(text) != std::string::npos)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected a violation naming \"" << text << "\", got \""
         << message << "\"";
}

/// Index of the first scheduled entry with EC servers, or -1.
int entry_with_ec_servers(const ScheduleFixture& fix) {
  for (std::size_t i = 0; i < fix.schedule.scheduled.size(); ++i)
    if (!fix.schedule.scheduled[i].ec_servers.empty())
      return static_cast<int>(i);
  return -1;
}

TEST(ScheduleValidator, RejectsRequestedCodesMismatch) {
  ScheduleFixture fix;
  fix.schedule.requested_codes += 1;
  EXPECT_TRUE(violation_names(fix, "requested codes, requests sum to"));
}

TEST(ScheduleValidator, RejectsNonPositiveCodes) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  fix.schedule.scheduled.front().codes = 0;
  EXPECT_TRUE(violation_names(fix, "entry 0: 0 codes"));
}

TEST(ScheduleValidator, RejectsSingleNodePath) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& path = fix.schedule.scheduled.front().support_path;
  path.resize(1);
  EXPECT_TRUE(violation_names(fix, "entry 0: support path has 1 nodes"));
}

TEST(ScheduleValidator, RejectsPathNodeOutsideTopology) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& path = fix.schedule.scheduled.front().support_path;
  path.insert(path.begin() + 1, -1);
  EXPECT_TRUE(violation_names(fix, "entry 0: support path node -1 outside"));
}

TEST(ScheduleValidator, RejectsHopWithoutFiber) {
  ScheduleFixture fix;
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& path = fix.schedule.scheduled.front().support_path;
  int stranger = -1;
  for (int v = 0; v < fix.topology.num_nodes() && stranger < 0; ++v)
    if (v != path.front() && fix.topology.fiber_between(path.front(), v) < 0)
      stranger = v;
  ASSERT_GE(stranger, 0);
  path.insert(path.begin() + 1, stranger);
  EXPECT_TRUE(violation_names(fix, "has no fiber"));
}

TEST(ScheduleValidator, RejectsCorePathWithWrongEnds) {
  ScheduleFixture fix;
  ASSERT_TRUE(fix.params.dual_channel);
  ASSERT_FALSE(fix.schedule.scheduled.empty());
  auto& core = fix.schedule.scheduled.front().core_path;
  ASSERT_GE(core.size(), 2u);
  core.pop_back();
  EXPECT_TRUE(violation_names(fix, "entry 0: core path"));
}

TEST(ScheduleValidator, RejectsEcServerListedTwice) {
  // Servers must appear along the path in order, each once; repeating one
  // asks for a second visit that the path does not make.
  ScheduleFixture fix;
  const int i = entry_with_ec_servers(fix);
  ASSERT_GE(i, 0) << "fixture schedule has no EC server";
  auto& servers =
      fix.schedule.scheduled[static_cast<std::size_t>(i)].ec_servers;
  servers.push_back(servers.back());
  EXPECT_TRUE(violation_names(fix, "not on the support path (in order)"));
}

TEST(ScheduleValidator, RejectsMoreEcServersThanNoiseAllows) {
  // Eq. (6): with omega larger than any path's noise, no EC is allowed.
  ScheduleFixture fix;
  ASSERT_GE(entry_with_ec_servers(fix), 0)
      << "fixture schedule has no EC server";
  fix.params.ec_reduction = 1e9;
  EXPECT_TRUE(violation_names(fix, "EC servers, noise"));
}

#else  // !SURFNET_CHECKS

TEST(ScheduleValidator, SkippedWithoutChecks) {
  GTEST_SKIP() << "SURFNET_CHECKS is off; validators compile to no-ops";
}

#endif  // SURFNET_CHECKS

}  // namespace
}  // namespace surfnet::routing
