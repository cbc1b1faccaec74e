// Tests for the routing formulation, the greedy scheduler, the LP router
// with rounding, and the purification router: schedules must be structurally
// valid (adjacent hops, user endpoints, EC servers on both paths in order)
// and respect every capacity and noise constraint.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/surfnet.h"
#include "netsim/channel.h"
#include "obs/metrics.h"
#include "routing/formulation.h"
#include "routing/greedy.h"
#include "routing/incremental.h"
#include "routing/purification.h"
#include "routing/router.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

using netsim::Request;
using netsim::Schedule;
using netsim::Topology;
using netsim::TopologySpec;

TopologySpec spec_for_tests() {
  TopologySpec spec;
  spec.num_nodes = 22;
  spec.num_servers = 3;
  spec.num_switches = 7;
  spec.storage_capacity = 100;
  spec.entanglement_capacity = 30;
  return spec;
}

RoutingParams params_for_tests() {
  RoutingParams params;
  params.core_noise_threshold = 0.6;
  params.total_noise_threshold = 0.7;
  params.ec_reduction = 0.15;
  return params;
}

void check_schedule_valid(const Topology& topo,
                          const std::vector<Request>& requests,
                          const Schedule& schedule, bool dual) {
  int total_codes = 0;
  std::map<int, int> per_request;
  for (const auto& s : schedule.scheduled) {
    ASSERT_GE(s.request_index, 0);
    ASSERT_LT(s.request_index, static_cast<int>(requests.size()));
    const auto& req = requests[static_cast<std::size_t>(s.request_index)];
    total_codes += s.codes;
    per_request[s.request_index] += s.codes;

    // Support path: valid, endpoints match, hops adjacent, transit nodes
    // are switches/servers.
    ASSERT_GE(s.support_path.size(), 2u);
    EXPECT_EQ(s.support_path.front(), req.src);
    EXPECT_EQ(s.support_path.back(), req.dst);
    for (std::size_t i = 0; i + 1 < s.support_path.size(); ++i)
      EXPECT_GE(topo.fiber_between(s.support_path[i], s.support_path[i + 1]),
                0);
    for (std::size_t i = 1; i + 1 < s.support_path.size(); ++i)
      EXPECT_TRUE(topo.is_switch_or_server(s.support_path[i]));

    if (dual) {
      ASSERT_GE(s.core_path.size(), 2u);
      EXPECT_EQ(s.core_path.front(), req.src);
      EXPECT_EQ(s.core_path.back(), req.dst);
      for (std::size_t i = 0; i + 1 < s.core_path.size(); ++i)
        EXPECT_GE(topo.fiber_between(s.core_path[i], s.core_path[i + 1]), 0);
    } else {
      EXPECT_TRUE(s.core_path.empty());
    }

    // EC servers appear on both paths, in order.
    std::size_t sup_cursor = 0, core_cursor = 0;
    for (int server : s.ec_servers) {
      EXPECT_TRUE(topo.is_server(server));
      const auto sup_it =
          std::find(s.support_path.begin() +
                        static_cast<std::ptrdiff_t>(sup_cursor),
                    s.support_path.end(), server);
      ASSERT_NE(sup_it, s.support_path.end());
      sup_cursor =
          static_cast<std::size_t>(sup_it - s.support_path.begin()) + 1;
      if (dual) {
        const auto core_it =
            std::find(s.core_path.begin() +
                          static_cast<std::ptrdiff_t>(core_cursor),
                      s.core_path.end(), server);
        ASSERT_NE(core_it, s.core_path.end());
        core_cursor =
            static_cast<std::size_t>(core_it - s.core_path.begin()) + 1;
      }
    }
  }
  EXPECT_EQ(total_codes, schedule.scheduled_codes());
  for (const auto& [k, codes] : per_request)
    EXPECT_LE(codes, requests[static_cast<std::size_t>(k)].codes);
}

void check_capacities(const Topology& topo, const Schedule& schedule,
                      const RoutingParams& params) {
  std::map<int, double> node_usage;
  std::map<int, double> fiber_usage;
  for (const auto& s : schedule.scheduled) {
    const double support_demand =
        params.dual_channel ? params.support_qubits : params.total_qubits();
    for (std::size_t i = 1; i + 1 < s.support_path.size(); ++i)
      node_usage[s.support_path[i]] += support_demand * s.codes;
    for (std::size_t i = 1; i + 1 < s.core_path.size(); ++i)
      node_usage[s.core_path[i]] += params.core_qubits * s.codes;
    for (std::size_t i = 0; i + 1 < s.core_path.size(); ++i)
      fiber_usage[topo.fiber_between(s.core_path[i], s.core_path[i + 1])] +=
          params.core_qubits * s.codes;
  }
  const double bonus = params.dual_channel ? 1.0 : kRawCapacityBonus;
  for (const auto& [node, usage] : node_usage)
    EXPECT_LE(usage, bonus * topo.node(node).storage_capacity + 1e-6)
        << "node " << node;
  for (const auto& [fiber, usage] : fiber_usage)
    EXPECT_LE(usage, topo.fiber(fiber).entanglement_capacity + 1e-6)
        << "fiber " << fiber;
}

class RouterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RouterPropertyTest, GreedyScheduleIsValidAndWithinCapacity) {
  util::Rng rng(static_cast<unsigned>(GetParam()));
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 6, 3, rng);
  const auto params = params_for_tests();
  const auto schedule = route_greedy(topo, requests, params, rng);
  check_schedule_valid(topo, requests, schedule, /*dual=*/true);
  check_capacities(topo, schedule, params);
}

TEST_P(RouterPropertyTest, LpScheduleIsValidAndWithinCapacity) {
  util::Rng rng(static_cast<unsigned>(GetParam()) + 1000);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 6, 3, rng);
  const auto params = params_for_tests();
  const auto result = route(topo, requests, params, rng);
  check_schedule_valid(topo, requests, result.schedule, /*dual=*/true);
  check_capacities(topo, result.schedule, params);
  // Integral schedules cannot beat the LP relaxation.
  if (result.status == LpStatus::Optimal) {
    EXPECT_LE(result.schedule.scheduled_codes(), result.lp_objective + 1e-4);
  }
}

TEST_P(RouterPropertyTest, RawLpScheduleIsValid) {
  util::Rng rng(static_cast<unsigned>(GetParam()) + 2000);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 6, 3, rng);
  auto params = params_for_tests();
  params.dual_channel = false;
  const auto result = route(topo, requests, params, rng);
  check_schedule_valid(topo, requests, result.schedule, /*dual=*/false);
  check_capacities(topo, result.schedule, params);
}

TEST_P(RouterPropertyTest, PurificationScheduleRespectsPairBudget) {
  util::Rng rng(static_cast<unsigned>(GetParam()) + 3000);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 8, 3, rng);
  PurificationParams params;
  params.extra_pairs = 2;
  const auto schedule = route_purification(topo, requests, params, rng);
  std::map<int, double> fiber_usage;
  for (const auto& s : schedule.scheduled) {
    ASSERT_GE(s.core_path.size(), 2u);
    const auto& req = requests[static_cast<std::size_t>(s.request_index)];
    EXPECT_EQ(s.core_path.front(), req.src);
    EXPECT_EQ(s.core_path.back(), req.dst);
    for (std::size_t i = 0; i + 1 < s.core_path.size(); ++i) {
      const int e = topo.fiber_between(s.core_path[i], s.core_path[i + 1]);
      ASSERT_GE(e, 0);
      fiber_usage[e] += (1 + params.extra_pairs) * s.codes;
    }
  }
  for (const auto& [fiber, usage] : fiber_usage)
    EXPECT_LE(usage, topo.fiber(fiber).entanglement_capacity + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Expects `run` to throw std::invalid_argument naming `field`.
template <typename Run>
void expect_rejected(const std::string& field, Run run) {
  try {
    run();
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
        << err.what();
  }
}

/// A random test topology and three requests, the second asking for -2
/// codes (summed, {1, -2, 3} would read as 2 requested codes).
struct NegativeCodesCase {
  Topology topology;
  std::vector<Request> requests;
};

NegativeCodesCase negative_codes_case() {
  util::Rng rng(71);
  auto topology = netsim::make_random_topology(spec_for_tests(), rng);
  auto requests = netsim::random_requests(topology, 3, 3, rng);
  requests[1].codes = -2;
  return {std::move(topology), std::move(requests)};
}

TEST(LpRouter, RejectsNegativeRequestCodes) {
  const auto c = negative_codes_case();
  util::Rng rng(1);
  expect_rejected("codes", [&] {
    route(c.topology, c.requests, params_for_tests(), rng);
  });
}

TEST(Greedy, RejectsNegativeRequestCodes) {
  const auto c = negative_codes_case();
  util::Rng rng(1);
  expect_rejected("codes", [&] {
    route_greedy(c.topology, c.requests, params_for_tests(), rng);
  });
}

TEST(Purification, RejectsNegativeRequestCodes) {
  const auto c = negative_codes_case();
  util::Rng rng(1);
  expect_rejected("codes", [&] {
    route_purification(c.topology, c.requests, PurificationParams{}, rng);
  });
}

/// Every router that takes RoutingParams rejects `params` naming `field`:
/// the LP router, the greedy scheduler and the incremental router.
void expect_routers_reject(const RoutingParams& params,
                           const std::string& field) {
  util::Rng rng(73);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 3, 3, rng);
  expect_rejected(field, [&] { route(topo, requests, params, rng); });
  expect_rejected(field, [&] { route_greedy(topo, requests, params, rng); });
  expect_rejected(field, [&] { IncrementalRouter router(topo, params); });
}

/// NaN, infinity and a negative value, each set through `field`.
template <typename Set>
void expect_non_finite_or_negative_rejected(const std::string& field,
                                            Set set) {
  for (const double bad : {std::nan(""), LpProblem::kInfinity, -0.5}) {
    RoutingParams params = params_for_tests();
    set(params, bad);
    expect_routers_reject(params, field);
  }
}

TEST(RoutingParamsTest, RejectsNonFiniteOrNegativeEcReduction) {
  // NaN scheduled more codes than the finite default: every EC-count
  // comparison against it was false.
  expect_non_finite_or_negative_rejected(
      "ec_reduction", [](RoutingParams& p, double v) { p.ec_reduction = v; });
}

TEST(RoutingParamsTest, RejectsNonFiniteOrNegativeCoreNoiseThreshold) {
  expect_non_finite_or_negative_rejected(
      "core_noise_threshold",
      [](RoutingParams& p, double v) { p.core_noise_threshold = v; });
}

TEST(RoutingParamsTest, RejectsNonFiniteOrNegativeTotalNoiseThreshold) {
  expect_non_finite_or_negative_rejected(
      "total_noise_threshold",
      [](RoutingParams& p, double v) { p.total_noise_threshold = v; });
}

TEST(RoutingParamsTest, AcceptsZeroThresholdsAndReduction) {
  RoutingParams params = params_for_tests();
  params.ec_reduction = 0.0;
  params.core_noise_threshold = 0.0;
  params.total_noise_threshold = 0.0;
  util::Rng rng(74);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 3, 3, rng);
  EXPECT_NO_THROW(route(topo, requests, params, rng));
  EXPECT_NO_THROW(route_greedy(topo, requests, params, rng));
  EXPECT_NO_THROW(IncrementalRouter router(topo, params));
}

TEST(Purification, RejectsNegativeExtraPairs) {
  // At -1 a message would need no pairs at all; below -1 each hop would
  // hand pairs back to the fiber's budget.
  util::Rng rng(72);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 3, 3, rng);
  for (const int extra_pairs : {-1, -3}) {
    expect_rejected("extra_pairs", [&] {
      route_purification(topo, requests,
                         PurificationParams{.extra_pairs = extra_pairs}, rng);
    });
  }
  EXPECT_NO_THROW(route_purification(
      topo, requests, PurificationParams{.extra_pairs = 0}, rng));
}

TEST(LpRouter, WarmResolveStatsAreConsistent) {
  // The router re-solves the residual LP from the saved basis at most
  // twice; when it does, a warm re-solve must cost (on average) fewer
  // simplex iterations than the cold solve it descends from.
  int observed_resolves = 0;
  for (const unsigned seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    util::Rng rng(seed);
    const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
    const auto requests = netsim::random_requests(topo, 8, 4, rng);
    const auto result = route(topo, requests, params_for_tests(), rng);
    if (result.status != LpStatus::Optimal) continue;
    EXPECT_GT(result.cold_iterations, 0);
    EXPECT_LE(result.resolves, 2);
    if (result.resolves > 0) {
      ++observed_resolves;
      EXPECT_LT(result.warm_iterations / result.resolves,
                result.cold_iterations)
          << "seed " << seed;
    }
  }
  // The assertion above must not be vacuous across the seed set.
  EXPECT_GT(observed_resolves, 0);
}

TEST(LpRouter, CountsCrashStartsAndDualPivots) {
  // Every route() call crash-starts its first solve from the formulation's
  // flow trees (not a warm start), and its re-solves carry the basis, which
  // the dual phase repairs after the residual bounds tightened.
  obs::MetricsRegistry metrics;
  RoutingParams params = params_for_tests();
  params.sink.metrics = &metrics;
  util::Rng rng(11);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 8, 4, rng);
  const int calls = 2;
  int resolves = 0;
  for (int call = 0; call < calls; ++call) {
    util::Rng route_rng(100 + static_cast<std::uint64_t>(call));
    const auto result = route(topo, requests, params, route_rng);
    ASSERT_EQ(result.status, LpStatus::Optimal);
    resolves += result.resolves;
  }
  ASSERT_GT(resolves, 0);
  EXPECT_EQ(metrics.counter("lp.crash_starts"), calls);
  EXPECT_EQ(metrics.counter("lp.warm_starts"), resolves);
  EXPECT_EQ(metrics.counter("lp.solves"), calls + resolves);
  EXPECT_GT(metrics.counter("lp.dual_iterations"), 0);
  EXPECT_LE(metrics.counter("lp.dual_iterations"),
            metrics.counter("lp.iterations"));
  EXPECT_EQ(metrics.counter("route.lp_iteration_limits"), 0);
}

TEST(LpRouter, KeptBasisBeatsColdSolvesAtEveryDeltaSize) {
  // route()'s re-solves change request limits, never the formulation's
  // shape, so one LpSolver keeps its basis across them. Over the same
  // sequence of limit toggles on a d-request routing LP, the kept basis
  // must take strictly fewer simplex iterations than fresh solvers, at
  // every delta size d.
  constexpr int kReps = 5;
  for (const int delta : {1, 2, 4, 8, 16, 32}) {
    util::Rng setup(20240607);
    TopologySpec spec;
    spec.storage_capacity = 120;
    spec.entanglement_capacity = 40;
    const auto topology = netsim::make_random_topology(spec, setup);
    const auto requests = netsim::random_requests(topology, delta, 1, setup);
    const RoutingParams params;
    const auto toggle = [&](RoutingFormulation& f, int step) {
      f.set_request_limit(step % delta, step % 2 == 0 ? 0.0 : 1.0);
    };

    long cold = 0;
    RoutingFormulation cold_lp(topology, requests, params);
    for (int step = 0; step < kReps; ++step) {
      toggle(cold_lp, step);
      cold += LpSolver(cold_lp.problem()).solve().iterations;
    }
    long warm = 0;
    RoutingFormulation warm_lp(topology, requests, params);
    LpSolver solver(warm_lp.problem());
    solver.solve();  // the solve whose basis the first re-solve keeps
    for (int step = 0; step < kReps; ++step) {
      toggle(warm_lp, step);
      warm += solver.solve().iterations;
    }
    EXPECT_LT(warm, cold) << "delta " << delta;
  }
}

TEST(LpRouter, ReplaysFromEqualRngStatesAndFallsBackOnlyWithoutAnOptimum) {
  // route() is a function of its inputs and the RNG state: equal seeds give
  // equal results and leave both streams in lockstep. The greedy fallback
  // routes exactly when the first solve has no optimum.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 99ULL}) {
    util::Rng rng(seed);
    const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
    const auto requests = netsim::random_requests(topo, 8, 4, rng);
    util::Rng rng_a(seed * 31 + 1), rng_b(seed * 31 + 1);
    const auto a = route(topo, requests, params_for_tests(), rng_a);
    const auto b = route(topo, requests, params_for_tests(), rng_b);
    EXPECT_EQ(a.greedy_fallback, a.status != LpStatus::Optimal);
    if (a.greedy_fallback) {
      EXPECT_EQ(a.lp_objective, 0.0);
    }
    int requested = 0;
    for (const auto& r : requests) requested += r.codes;
    EXPECT_EQ(a.schedule.requested_codes, requested);

    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.greedy_fallback, b.greedy_fallback);
    EXPECT_EQ(a.lp_objective, b.lp_objective);
    EXPECT_EQ(a.resolves, b.resolves);
    EXPECT_EQ(a.cold_iterations, b.cold_iterations);
    EXPECT_EQ(a.warm_iterations, b.warm_iterations);
    ASSERT_EQ(a.schedule.scheduled.size(), b.schedule.scheduled.size());
    for (std::size_t i = 0; i < a.schedule.scheduled.size(); ++i) {
      const auto& x = a.schedule.scheduled[i];
      const auto& y = b.schedule.scheduled[i];
      EXPECT_EQ(x.request_index, y.request_index);
      EXPECT_EQ(x.codes, y.codes);
      EXPECT_EQ(x.core_path, y.core_path);
      EXPECT_EQ(x.support_path, y.support_path);
      EXPECT_EQ(x.ec_servers, y.ec_servers);
      EXPECT_EQ(x.code_distance, y.code_distance);
    }
    EXPECT_EQ(rng_a(), rng_b()) << "seed " << seed;
  }
}

TEST(RoutingParamsTest, StorageScaleIsAppliedAlikeByTrackerAndFormulation) {
  // Eq. (5)'s storage capacities: the Raw baseline stores kRawCapacityBonus
  // times a node's capacity, SurfNet exactly it. The greedy tracker and the
  // LP's storage rows must read the same bound.
  util::Rng rng(55);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 6, 3, rng);
  for (const bool dual : {true, false}) {
    RoutingParams params = params_for_tests();
    params.dual_channel = dual;
    const double scale = dual ? 1.0 : kRawCapacityBonus;
    EXPECT_DOUBLE_EQ(params.storage_scale(), scale);
    const CapacityTracker tracker(topo, params);
    const RoutingFormulation formulation(topo, requests, params);
    int rows = 0;
    for (const int v : topo.switches_and_servers()) {
      const double bound = scale * topo.node(v).storage_capacity;
      EXPECT_DOUBLE_EQ(tracker.node_remaining(v), bound) << "node " << v;
      const int row = formulation.storage_row(v);
      if (row < 0) continue;
      ++rows;
      EXPECT_DOUBLE_EQ(formulation.problem().rhs(row), bound) << "node " << v;
    }
    EXPECT_GT(rows, 0);
  }
}

TEST(Formulation, CrashHintSpansEveryRequestOnEveryChannel) {
  // One tree in-arc per reached non-source node and channel, one EC
  // variable per reached server, no column or row twice, and the basis it
  // builds must factorize (a crash start, not the slack fallback).
  util::Rng rng(12);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 6, 3, rng);
  for (const bool dual : {true, false}) {
    RoutingParams params = params_for_tests();
    params.dual_channel = dual;
    const RoutingFormulation formulation(topo, requests, params);
    const auto hint = formulation.crash_hint();
    ASSERT_FALSE(hint.empty());
    std::map<int, int> cols, rows;
    for (const auto& [col, row] : hint) {
      EXPECT_EQ(++cols[col], 1) << "column " << col;
      EXPECT_EQ(++rows[row], 1) << "row " << row;
    }
    for (int k = 0; k < formulation.num_requests(); ++k) {
      const auto& v = formulation.vars(k);
      int placed_a = 0, placed_b = 0;
      for (std::size_t de = 0; de < v.b.size(); ++de) {
        if (v.b[de] >= 0 && cols.count(v.b[de])) ++placed_b;
        if (dual && v.a[de] >= 0 && cols.count(v.a[de])) ++placed_a;
      }
      EXPECT_GT(placed_b, 0) << "request " << k;
      EXPECT_EQ(placed_a, dual ? placed_b : 0) << "request " << k;
      EXPECT_EQ(cols.count(v.y), 0u);
    }
    LpSolver solver(formulation.problem());
    solver.crash(hint);
    const auto crash = solver.solve();
    const auto slack = LpSolver(formulation.problem()).solve();
    ASSERT_EQ(crash.status, LpStatus::Optimal);
    ASSERT_EQ(slack.status, LpStatus::Optimal);
    EXPECT_TRUE(crash.crash_started);
    EXPECT_FALSE(crash.warm_started);
    EXPECT_NEAR(crash.objective, slack.objective,
                1e-7 * std::max(1.0, std::abs(slack.objective)));
    EXPECT_LT(crash.iterations, slack.iterations);
  }
}

TEST(Greedy, NoCapacityMeansNothingScheduled) {
  util::Rng rng(50);
  auto spec = spec_for_tests();
  spec.storage_capacity = 0;
  const auto topo = netsim::make_random_topology(spec, rng);
  const auto requests = netsim::random_requests(topo, 5, 2, rng);
  const auto schedule =
      route_greedy(topo, requests, params_for_tests(), rng);
  EXPECT_EQ(schedule.scheduled_codes(), 0);
  EXPECT_DOUBLE_EQ(schedule.throughput(), 0.0);
}

TEST(Greedy, TightThresholdBlocksLongRoutes) {
  util::Rng rng(51);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 5, 2, rng);
  auto params = params_for_tests();
  params.core_noise_threshold = 1e-6;
  params.total_noise_threshold = 1e-6;
  const auto schedule = route_greedy(topo, requests, params, rng);
  // Only zero-noise routes (if any perfect-fidelity path exists) pass.
  for (const auto& s : schedule.scheduled)
    EXPECT_LE(netsim::path_noise(topo, s.support_path), 1e-5);
}

TEST(Formulation, VariableCountsAndPruning) {
  util::Rng rng(52);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 3, 2, rng);
  const RoutingFormulation formulation(topo, requests,
                                       params_for_tests());
  EXPECT_EQ(formulation.num_requests(), 3);
  for (int k = 0; k < 3; ++k) {
    const auto& v = formulation.vars(k);
    EXPECT_GE(v.y, 0);
    EXPECT_EQ(v.x.size(), topo.servers().size());
    // Edges into the source and out of the destination are pruned.
    const auto& req = requests[static_cast<std::size_t>(k)];
    for (int de = 0; de < formulation.num_directed_edges(); ++de) {
      if (formulation.edge_head(de) == req.src) {
        EXPECT_EQ(v.a[static_cast<std::size_t>(de)], -1);
      }
      if (formulation.edge_tail(de) == req.dst) {
        EXPECT_EQ(v.b[static_cast<std::size_t>(de)], -1);
      }
    }
  }
}

TEST(Formulation, LpSolutionRespectsYBounds) {
  util::Rng rng(53);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 4, 3, rng);
  const RoutingFormulation formulation(topo, requests, params_for_tests());
  const auto sol = LpSolver(formulation.problem()).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  for (int k = 0; k < formulation.num_requests(); ++k) {
    const double y =
        sol.x[static_cast<std::size_t>(formulation.vars(k).y)];
    EXPECT_GE(y, -1e-6);
    EXPECT_LE(y, requests[static_cast<std::size_t>(k)].codes + 1e-6);
  }
}

TEST(Formulation, RejectsNonUserEndpoints) {
  util::Rng rng(54);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const int server = topo.servers().front();
  const int user = topo.users().front();
  std::vector<Request> bad{{server, user, 1}};
  EXPECT_THROW(RoutingFormulation(topo, bad, params_for_tests()),
               std::invalid_argument);
}

TEST(CapacityTrackerTest, CommitDecrements) {
  util::Rng rng(55);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto params = params_for_tests();
  CapacityTracker tracker(topo, params);
  // Find any user-switch-...: use greedy plan for a request.
  const auto users = topo.users();
  PlanWorkspace ws;
  const auto plan =
      plan_code(topo, tracker, params, users[0], users[1], ws);
  ASSERT_TRUE(plan.has_value());
  const double before = tracker.node_remaining(plan->path[1]);
  tracker.commit(plan->path, plan->path, params.demand());
  EXPECT_NEAR(tracker.node_remaining(plan->path[1]),
              before - params.total_qubits(), 1e-9);
}

TEST(RoutingParamsTest, DemandIsTheCodesEq5Charge) {
  RoutingParams params;  // the paper's d=4 code: n = 7, m = 18
  const CodeDemand dual = params.demand();
  EXPECT_EQ(dual.support_storage, 18.0);
  EXPECT_EQ(dual.core_storage, 7.0);
  EXPECT_EQ(dual.pairs, 7.0);
  for (const int d : {3, 4, 5}) {
    const CodeDemand sized = params.demand(d);
    EXPECT_EQ(sized.core_storage, RoutingParams::core_qubits_for(d));
    EXPECT_EQ(sized.pairs, RoutingParams::core_qubits_for(d));
    EXPECT_EQ(sized.support_storage + sized.core_storage,
              RoutingParams::total_qubits_for(d));
  }
  // The Raw baseline carries the whole code on the Support path.
  params.dual_channel = false;
  for (const int d : {0, 3, 5}) {
    const CodeDemand raw = params.demand(d);
    EXPECT_EQ(raw.support_storage, d > 0 ? RoutingParams::total_qubits_for(d)
                                         : params.total_qubits());
    EXPECT_EQ(raw.core_storage, 0.0);
    EXPECT_EQ(raw.pairs, 0.0);
  }
  // floor(mu / omega) corrections, none without a per-correction gain.
  params.ec_reduction = 0.12;
  EXPECT_EQ(params.max_corrections(0.0), 0);
  EXPECT_EQ(params.max_corrections(0.25), 2);
  params.ec_reduction = 0.0;
  EXPECT_EQ(params.max_corrections(5.0), 0);
}

TEST(CapacityTrackerTest, EveryDemandShapeCommitsReleasesAndChecksExactly) {
  // Users 0 and 5; switches and servers 1-4. The Core path 0-1-2-5 and the
  // Support path 0-1-4-5 share node 1, which then stores both parts.
  const std::vector<int> core{0, 1, 2, 5};
  const std::vector<int> support{0, 1, 4, 5};
  const std::vector<int> no_path;
  struct Shape {
    const char* name;
    bool dual;
    int distance;
    int codes;
    bool split;       ///< Core and Support on different paths
    bool empty_core;  ///< Raw as the LP rounding passes it
    double pairs_only;  ///< > 0: a purification message of this many pairs
  };
  std::vector<Shape> shapes{
      {"dual one path", true, 0, 1, false, false, 0.0},
      {"raw one path", false, 0, 1, false, false, 0.0},
      {"raw empty core", false, 0, 1, false, true, 0.0},
      {"split", true, 0, 1, true, false, 0.0},
      {"split x3", true, 0, 3, true, false, 0.0},
      {"pairs only", true, 0, 1, false, false, 3.0},
  };
  for (const int d : {3, 4, 5})
    for (const int codes : {1, 3})
      shapes.push_back({"adaptive", true, d, codes, false, false, 0.0});

  int feasible_seen = 0, infeasible_seen = 0;
  for (const Shape& shape : shapes) {
    // Capacities in steps of 5 keep the Raw bonus (x1.2) integral, so a
    // round trip through a negative capacity is exact too.
    for (int storage = 0; storage <= 80; storage += 5)
      for (int pairs = 0; pairs <= 24; pairs += 3) {
        SCOPED_TRACE(std::string(shape.name) + " d=" +
                     std::to_string(shape.distance) + " codes=" +
                     std::to_string(shape.codes) + " storage=" +
                     std::to_string(storage) + " pairs=" +
                     std::to_string(pairs));
        std::vector<netsim::Node> nodes(6);
        for (const int v : {1, 2, 3, 4})
          nodes[static_cast<std::size_t>(v)] = {
              v == 1 || v == 4 ? netsim::NodeRole::Server
                               : netsim::NodeRole::Switch,
              storage};
        const Topology topo(std::move(nodes), {{0, 1, 0.9, pairs},
                                               {1, 2, 0.9, pairs},
                                               {2, 5, 0.9, pairs},
                                               {1, 4, 0.9, pairs},
                                               {4, 5, 0.9, pairs},
                                               {2, 3, 0.9, pairs}});
        RoutingParams params;
        params.dual_channel = shape.dual;
        const CodeDemand demand =
            shape.pairs_only > 0.0 ? CodeDemand{0.0, 0.0, shape.pairs_only}
                                   : params.demand(shape.distance);
        const std::vector<int>& support_path = shape.split ? support : core;
        const std::vector<int>& core_path =
            shape.empty_core ? no_path : shape.split ? core : support_path;

        CapacityTracker tracker(topo, params);
        std::vector<double> before_nodes, before_fibers;
        for (int v = 0; v < topo.num_nodes(); ++v)
          before_nodes.push_back(tracker.node_remaining(v));
        for (int e = 0; e < topo.num_fibers(); ++e)
          before_fibers.push_back(tracker.fiber_pairs_remaining(e));
        const std::uint64_t version = tracker.version();

        const bool fits =
            tracker.feasible(core_path, support_path, demand, shape.codes);
        tracker.commit(core_path, support_path, demand, shape.codes);
        bool none_negative = true;
        for (int v = 0; v < topo.num_nodes(); ++v)
          none_negative &= tracker.node_remaining(v) >= 0.0;
        for (int e = 0; e < topo.num_fibers(); ++e)
          none_negative &= tracker.fiber_pairs_remaining(e) >= 0.0;
        EXPECT_EQ(fits, none_negative);
        (fits ? feasible_seen : infeasible_seen) += 1;

        tracker.release(core_path, support_path, demand, shape.codes);
        EXPECT_EQ(tracker.version(), version + 2);
        for (int v = 0; v < topo.num_nodes(); ++v)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(tracker.node_remaining(v)),
                    std::bit_cast<std::uint64_t>(
                        before_nodes[static_cast<std::size_t>(v)]))
              << "node " << v;
        for (int e = 0; e < topo.num_fibers(); ++e)
          EXPECT_EQ(
              std::bit_cast<std::uint64_t>(tracker.fiber_pairs_remaining(e)),
              std::bit_cast<std::uint64_t>(
                  before_fibers[static_cast<std::size_t>(e)]))
              << "fiber " << e;
        if (::testing::Test::HasFailure()) return;
      }
  }
  // The sweep reaches both verdicts.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}


TEST(AdaptiveDistance, BandsEscalateWithResidualNoise) {
  EXPECT_EQ(adaptive_distance(0.0), 3);
  EXPECT_EQ(adaptive_distance(0.10), 3);
  EXPECT_EQ(adaptive_distance(0.2), 4);
  EXPECT_EQ(adaptive_distance(0.30), 4);
  EXPECT_EQ(adaptive_distance(0.5), 5);
}

TEST(AdaptiveDistance, QubitCountFormulas) {
  EXPECT_EQ(RoutingParams::core_qubits_for(3), 5);
  EXPECT_EQ(RoutingParams::total_qubits_for(3), 13);
  EXPECT_EQ(RoutingParams::core_qubits_for(4), 7);
  EXPECT_EQ(RoutingParams::total_qubits_for(4), 25);
  EXPECT_EQ(RoutingParams::core_qubits_for(5), 9);
  EXPECT_EQ(RoutingParams::total_qubits_for(5), 41);
}

TEST(AdaptiveDistance, GreedySchedulerAssignsDistances) {
  util::Rng rng(60);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 8, 2, rng);
  auto params = params_for_tests();
  params.adaptive_code_distance = true;
  const auto schedule = route_greedy(topo, requests, params, rng);
  ASSERT_GT(schedule.scheduled_codes(), 0);
  for (const auto& s : schedule.scheduled) {
    EXPECT_GE(s.code_distance, 3);
    EXPECT_LE(s.code_distance, 5);
  }
}

TEST(AdaptiveDistance, LpTopUpChargesAndRecordsThePlannedDistance) {
  // route()'s greedy top-up takes each code from plan_code, which under
  // adaptive_code_distance picks the code's distance and judges the route
  // by that distance's thresholds. The entry must carry that distance, as
  // route_greedy's do, so that the ledger and the simulator size the code
  // the thresholds assumed. The LP rounding records 0, the configured code.
  int sized = 0;
  for (const auto level :
       {core::FacilityLevel::Abundant, core::FacilityLevel::Sufficient,
        core::FacilityLevel::Insufficient})
    for (const auto quality :
         {core::ConnectionQuality::Good, core::ConnectionQuality::Poor})
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const core::ScenarioParams scenario =
            core::make_scenario(level, quality);
        util::Rng rng(seed);
        const auto topology =
            netsim::make_random_topology(scenario.topology, rng);
        const auto requests = netsim::random_requests(
            topology, scenario.num_requests, scenario.max_codes_per_request,
            rng);
        RoutingParams params = scenario.routing;
        params.dual_channel = true;
        params.adaptive_code_distance = true;
        const auto result = route(topology, requests, params, rng);
        for (const auto& s : result.schedule.scheduled) {
          if (s.code_distance == 0) continue;
          ++sized;
          const auto plan = check_path(topology, params, s.support_path);
          ASSERT_TRUE(plan.has_value());
          EXPECT_EQ(s.code_distance, plan->distance);
        }
      }
  EXPECT_GT(sized, 0);
}

TEST(AdaptiveDistance, AdaptiveExecutesAtLeastAsMuchAsFixed) {
  // Threshold scaling lets noisy routes run on bigger codes, so the
  // adaptive scheduler should never execute fewer codes.
  util::Rng rng(61);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 8, 2, rng);
  auto fixed = params_for_tests();
  fixed.core_noise_threshold = 0.25;
  fixed.total_noise_threshold = 0.3;
  auto adaptive = fixed;
  adaptive.adaptive_code_distance = true;
  util::Rng rng1(62), rng2(62);
  const auto fixed_schedule = route_greedy(topo, requests, fixed, rng1);
  const auto adaptive_schedule = route_greedy(topo, requests, adaptive, rng2);
  EXPECT_GE(adaptive_schedule.scheduled_codes(),
            fixed_schedule.scheduled_codes());
}


TEST(Formulation, LpFlowsSatisfyConservationAndCoupling) {
  // Property on the raw LP solution: Eq. (4) conservation at every
  // switch/server and the server EC coupling x_r = inflow/n hold within
  // solver tolerance, for both Core and Support flows.
  util::Rng rng(70);
  const auto topo = netsim::make_random_topology(spec_for_tests(), rng);
  const auto requests = netsim::random_requests(topo, 4, 3, rng);
  const auto params = params_for_tests();
  const RoutingFormulation formulation(topo, requests, params);
  const auto sol = LpSolver(formulation.problem()).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);

  auto flow_sum = [&](const std::vector<int>& vars, auto keep) {
    double total = 0.0;
    for (int de = 0; de < formulation.num_directed_edges(); ++de) {
      const int var = vars[static_cast<std::size_t>(de)];
      if (var >= 0 && keep(de)) total += sol.x[static_cast<std::size_t>(var)];
    }
    return total;
  };

  for (int k = 0; k < formulation.num_requests(); ++k) {
    const auto& v = formulation.vars(k);
    for (int node : topo.switches_and_servers()) {
      const double a_in = flow_sum(
          v.a, [&](int de) { return formulation.edge_head(de) == node; });
      const double a_out = flow_sum(
          v.a, [&](int de) { return formulation.edge_tail(de) == node; });
      EXPECT_NEAR(a_in, a_out, 1e-5);
      const double b_in = flow_sum(
          v.b, [&](int de) { return formulation.edge_head(de) == node; });
      const double b_out = flow_sum(
          v.b, [&](int de) { return formulation.edge_tail(de) == node; });
      EXPECT_NEAR(b_in, b_out, 1e-5);
    }
    const auto& servers = formulation.servers();
    for (std::size_t r = 0; r < servers.size(); ++r) {
      const int node = servers[r];
      const double a_in = flow_sum(
          v.a, [&](int de) { return formulation.edge_head(de) == node; });
      const double x = sol.x[static_cast<std::size_t>(v.x[r])];
      EXPECT_NEAR(a_in, params.core_qubits * x, 1e-4);
    }
    // Eq. (3): source outflow equals n * Y.
    const auto& req = requests[static_cast<std::size_t>(k)];
    const double y = sol.x[static_cast<std::size_t>(v.y)];
    const double src_out = flow_sum(
        v.a, [&](int de) { return formulation.edge_tail(de) == req.src; });
    EXPECT_NEAR(src_out, params.core_qubits * y, 1e-4);
  }
}

}  // namespace
}  // namespace surfnet::routing
