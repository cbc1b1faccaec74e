// LP property campaign: the sparse revised simplex against the dense
// tableau oracle (tests/routing/dense_simplex.h) on random LpProblems,
// across every way a solve can start — cold (all-slack basis), warm (the
// basis a previous solve left, repaired by the dual phase) and crash (a
// basis built by crash_state from a caller's hint).
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
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../proptest.h"
#include "dense_simplex.h"
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

double random_upper_bound(util::Rng& rng) {
  const double roll = proptest::real_in(rng, 0.0, 1.0);
  if (roll < 0.25) return LpProblem::kInfinity;
  if (roll < 0.40) return 0.0;  // fixed column
  return proptest::int_in(rng, 1, 6);
}

ConstraintType random_type(util::Rng& rng) {
  const double roll = proptest::real_in(rng, 0.0, 1.0);
  if (roll < 0.5) return ConstraintType::LessEqual;
  if (roll < 0.75) return ConstraintType::GreaterEqual;
  return ConstraintType::Equal;
}

LpProblem random_problem(util::Rng& rng) {
  LpProblem lp;
  const int nv = proptest::int_in(rng, 1, 8);
  for (int v = 0; v < nv; ++v)
    lp.add_variable(0.5 * proptest::int_in(rng, -3, 4),
                    random_upper_bound(rng));
  const int rows = proptest::int_in(rng, 0, 8);
  const std::vector<double> coeffs{-2.0, -1.0, 1.0, 2.0, 3.0};
  for (int r = 0; r < rows; ++r) {
    const double rhs = proptest::chance(rng, 0.25)
                           ? 0.0  // degenerate row
                           : proptest::int_in(rng, -4, 10);
    if (r > 0 && proptest::chance(rng, 0.15)) {
      // Duplicate an earlier row, with the same or a fresh type.
      const int src = proptest::int_in(rng, 0, r - 1);
      const auto cols = lp.row_cols(src);
      const auto vals = lp.row_coeffs(src);
      const std::vector<int> dup_cols(cols.begin(), cols.end());
      const std::vector<double> dup_vals(vals.begin(), vals.end());
      const bool same = proptest::chance(rng, 0.5);
      lp.begin_constraint(same ? lp.row_type(src) : random_type(rng),
                          same ? lp.rhs(src) : rhs);
      for (std::size_t t = 0; t < dup_cols.size(); ++t)
        lp.add_term(dup_cols[t], dup_vals[t]);
      continue;
    }
    lp.begin_constraint(random_type(rng), rhs);
    if (proptest::chance(rng, 0.1)) continue;  // empty row
    for (int v = 0; v < nv; ++v) {
      if (!proptest::chance(rng, 0.5)) continue;
      lp.add_term(v, proptest::pick(rng, coeffs));
      if (proptest::chance(rng, 0.15))  // duplicate term: coefficients add
        lp.add_term(v, proptest::pick(rng, coeffs));
    }
  }
  return lp;
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
    const LpProblem lp = random_problem(rng);
    const LpSolution sol = solve_lp(lp);
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
    LpProblem lp = random_problem(rng);
    SimplexState state;
    LpSolution prev = solve_lp(lp, state);
    for (int redraw = 0; redraw < 8 && prev.status != LpStatus::Optimal;
         ++redraw) {
      lp = random_problem(rng);
      prev = solve_lp(lp, state);
    }
    expect_matches_oracle(prev, lp, "first");
    const int steps = proptest::int_in(rng, 2, 6);
    for (int step = 0; step < steps; ++step) {
      for (int r = 0; r < lp.num_rows(); ++r)
        if (proptest::chance(rng, 0.4))
          lp.set_rhs(r, lp.rhs(r) + proptest::int_in(rng, -3, 3));
      for (int v = 0; v < lp.num_vars(); ++v)
        if (std::isfinite(lp.upper_bound(v)) && proptest::chance(rng, 0.3))
          lp.set_upper_bound(
              v, std::max(0, static_cast<int>(lp.upper_bound(v)) +
                                 proptest::int_in(rng, -2, 2)));
      const LpSolution sol = solve_lp(lp, state);
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
  // no entry on their row and singular sets. crash_state skips repeats,
  // throws on out-of-range entries, and a singular basis falls back to the
  // slack start; whatever the start, the result must not change.
  int installed = 0, fallbacks = 0;
  proptest::check("crash_matches_cold", kConfig, [&](util::Rng& rng) {
    const LpProblem lp = random_problem(rng);
    const int nv = lp.num_vars();
    const int rows = lp.num_rows();
    std::vector<std::pair<int, int>> hint;
    if (rows > 0) {
      const int pairs = proptest::int_in(rng, 0, 2 * nv);
      for (int i = 0; i < pairs; ++i) {
        if (!hint.empty() && proptest::chance(rng, 0.15)) {
          hint.push_back(proptest::pick(rng, hint));  // exact duplicate
          continue;
        }
        hint.emplace_back(proptest::int_in(rng, 0, nv - 1),
                          proptest::int_in(rng, 0, rows - 1));
      }
    }
    if (proptest::chance(rng, 0.2)) {
      auto bad = hint;
      const std::vector<std::pair<int, int>> outside{
          {-1, 0}, {nv, 0}, {0, -1}, {0, rows}};
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(proptest::int_in(
                                   rng, 0, static_cast<int>(bad.size()))),
                 proptest::pick(rng, outside));
      EXPECT_THROW(crash_state(lp, bad), std::invalid_argument);
    }

    SimplexState state = crash_state(lp, hint);
    EXPECT_TRUE(state.crash);
    const LpSolution crash = solve_lp(lp, state);
    const LpSolution cold = solve_lp(lp);
    ASSERT_EQ(crash.status, cold.status);
    EXPECT_FALSE(crash.warm_started);
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(crash.objective, cold.objective, 1e-6);
    }
    EXPECT_FALSE(state.crash);  // the solve saved its own basis
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
      SimplexState state =
          crash_state(formulation.problem(), formulation.crash_hint());
      const LpSolution crash = solve_lp(formulation.problem(), state);
      const LpSolution slack = solve_lp(formulation.problem());
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
