// LP property campaign: the sparse revised simplex against the dense
// tableau oracle (tests/routing/dense_simplex.h) on random LpProblems,
// across every way a solve can start — cold (all-slack basis), warm (the
// basis a previous solve left, repaired by the dual phase) and crash (a
// basis LpSolver::crash builds from a caller's hint).
//
// Problems mix <=, >= and = rows, finite, infinite and fixed (u = 0)
// bounds, empty rows, duplicate rows, duplicate terms and zero right-hand
// sides. Coefficients and right-hand sides are small integers, so a
// problem is feasible or infeasible by a wide margin and the two solvers'
// tolerances never disagree on a borderline case.
//
// Scale with SURFNET_PROP_ITERS; replay a case with SURFNET_PROP_SEED.
// The coverage floors (dual phase finishing and handing over, crash bases
// installed and falling back) only apply to full default-size campaigns.

#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../proptest.h"
#include "dense_simplex.h"
#include "random_lp.h"
#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

constexpr proptest::Config kConfig{};

/// True for an unmodified default-size run, where coverage floors hold.
bool full_campaign() {
  if (std::getenv("SURFNET_PROP_SEED") != nullptr) return false;
  const char* iters = std::getenv("SURFNET_PROP_ITERS");
  return iters == nullptr || std::atoi(iters) >= kConfig.iterations;
}

void expect_matches_oracle(const LpSolution& got, const LpProblem& lp,
                           const std::string& label) {
  const LpSolution want = solve_lp_dense(lp);
  ASSERT_EQ(got.status, want.status) << label;
  if (want.status == LpStatus::Optimal) {
    EXPECT_NEAR(got.objective, want.objective, 1e-6) << label;
    ASSERT_EQ(got.x.size(), static_cast<std::size_t>(lp.num_vars()));
  }
}

TEST(SimplexProperty, ColdSolvesMatchDenseOracle) {
  int optimal = 0, infeasible = 0, unbounded = 0;
  proptest::check("cold_matches_dense", kConfig, [&](util::Rng& rng) {
    const LpProblem lp = random_lp::problem(rng);
    const LpSolution sol = LpSolver(lp).solve();
    EXPECT_FALSE(sol.warm_started);
    EXPECT_FALSE(sol.crash_started);
    EXPECT_EQ(sol.dual_iterations, 0);
    expect_matches_oracle(sol, lp, "cold");
    optimal += sol.status == LpStatus::Optimal;
    infeasible += sol.status == LpStatus::Infeasible;
    unbounded += sol.status == LpStatus::Unbounded;
  });
  if (full_campaign()) {
    EXPECT_GT(optimal, 20);
    EXPECT_GT(infeasible, 20);
    EXPECT_GT(unbounded, 5);
  }
}

TEST(SimplexProperty, WarmChainsMatchDenseOracle) {
  // After an optimal solve, only right-hand sides and finite bounds move,
  // so the carried basis stays dual feasible: a primal-infeasible restart
  // runs the dual phase, which either reaches feasibility (finish) or
  // hands the basis to phase 1 (which then proves infeasibility).
  int finishes = 0, handovers = 0, warm = 0;
  proptest::check("warm_chain_matches_dense", kConfig, [&](util::Rng& rng) {
    // Chains start from an optimal basis: redraw up to a few times.
    LpProblem lp;
    std::optional<LpSolver> solver;
    LpSolution prev;
    for (int draw = 0; draw < 9 && prev.status != LpStatus::Optimal;
         ++draw) {
      lp = random_lp::problem(rng);
      prev = solver.emplace(lp).solve();
    }
    expect_matches_oracle(prev, lp, "first");
    const int steps = proptest::int_in(rng, 2, 6);
    for (int step = 0; step < steps; ++step) {
      random_lp::perturb(rng, lp);
      const LpSolution sol = solver->solve();
      const std::string label = "step " + std::to_string(step);
      expect_matches_oracle(sol, lp, label);
      if (::testing::Test::HasFailure()) return;
      EXPECT_LE(sol.dual_iterations, sol.iterations) << label;
      EXPECT_FALSE(sol.crash_started) << label;
      if (sol.warm_started) ++warm;
      if (prev.status == LpStatus::Optimal && sol.warm_started) {
        if (sol.status == LpStatus::Optimal && sol.dual_iterations > 0)
          ++finishes;
        if (sol.status == LpStatus::Infeasible) ++handovers;
      }
      prev = sol;
    }
  });
  if (full_campaign()) {
    EXPECT_GT(warm, 100);
    EXPECT_GT(finishes, 20);
    EXPECT_GT(handovers, 20);
  }
}

TEST(SimplexProperty, CrashStartsMatchColdSolves) {
  // Random hints: duplicate pairs, reused columns, taken rows, columns with
  // no entry on their row and singular sets. crash() skips repeats, throws
  // on out-of-range entries, and a singular basis falls back to the slack
  // start; whatever the start, the result must not change.
  int installed = 0, fallbacks = 0;
  proptest::check("crash_matches_cold", kConfig, [&](util::Rng& rng) {
    const LpProblem lp = random_lp::problem(rng);
    const int nv = lp.num_vars();
    const int rows = lp.num_rows();
    const auto hint = random_lp::hint(rng, lp);
    LpSolver solver(lp);
    if (proptest::chance(rng, 0.2)) {
      auto bad = hint;
      const std::vector<std::pair<int, int>> outside{
          {-1, 0}, {nv, 0}, {0, -1}, {0, rows}};
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(proptest::int_in(
                                   rng, 0, static_cast<int>(bad.size()))),
                 proptest::pick(rng, outside));
      EXPECT_THROW(solver.crash(bad), std::invalid_argument);
    }

    solver.crash(hint);
    const LpSolution crash = solver.solve();
    const LpSolution cold = LpSolver(lp).solve();
    ASSERT_EQ(crash.status, cold.status);
    EXPECT_FALSE(crash.warm_started);
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(crash.objective, cold.objective, 1e-6);
    }
    // The solve kept its own basis, so the next one is no crash start.
    EXPECT_FALSE(solver.solve().crash_started);
    if (crash.crash_started && !hint.empty()) ++installed;
    if (!crash.crash_started && rows > 0) ++fallbacks;
  });
  if (full_campaign()) {
    EXPECT_GT(installed, 20);
    EXPECT_GT(fallbacks, 20);
  }
}

TEST(SimplexProperty, RoutingCrashStartsReachSlackObjective) {
  // The formulation's own flow-tree hint on random Barabasi-Albert
  // networks, Raw and dual-channel: the tree basis always factorizes and
  // the crash-started solve lands on the slack-started optimum.
  proptest::check("routing_crash_matches_slack", kConfig,
                  [](util::Rng& rng) {
    netsim::TopologySpec spec;
    spec.num_nodes = proptest::int_in(rng, 8, 20);
    spec.attach_edges = proptest::int_in(rng, 1, 3);
    spec.num_servers = proptest::int_in(rng, 0, 3);
    spec.num_switches = proptest::int_in(rng, 0, spec.num_nodes / 3);
    spec.storage_capacity = proptest::int_in(rng, 0, 120);
    spec.entanglement_capacity = proptest::int_in(rng, 0, 40);
    spec.fidelity_lo = proptest::real_in(rng, 0.5, 0.95);
    const auto topology = netsim::make_random_topology(spec, rng);
    const auto requests = netsim::random_requests(
        topology, proptest::int_in(rng, 1, 6), proptest::int_in(rng, 1, 4),
        rng);
    for (const bool dual : {true, false}) {
      RoutingParams params;
      params.dual_channel = dual;
      const RoutingFormulation formulation(topology, requests, params);
      LpSolver solver(formulation.problem());
      solver.crash(formulation.crash_hint());
      const LpSolution crash = solver.solve();
      const LpSolution slack = LpSolver(formulation.problem()).solve();
      const std::string label = dual ? "dual" : "raw";
      ASSERT_EQ(slack.status, LpStatus::Optimal) << label;
      ASSERT_EQ(crash.status, LpStatus::Optimal) << label;
      EXPECT_TRUE(crash.crash_started) << label;
      EXPECT_NEAR(crash.objective, slack.objective,
                  1e-7 * std::max(1.0, std::abs(slack.objective)))
          << label;
    }
  });
}

}  // namespace
}  // namespace surfnet::routing
