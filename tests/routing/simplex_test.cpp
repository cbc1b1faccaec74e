#include "routing/simplex.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "dense_simplex.h"
#include "routing/validate.h"
#include "util/rng.h"

namespace surfnet::routing {
namespace {

TEST(Simplex, SimpleTwoVariableMaximum) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 12.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 4.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 0.0, 1e-5);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj=8/3.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 2.0}}, ConstraintType::LessEqual, 4.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 8.0 / 3.0, 1e-5);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, obj=5.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0, 2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::Equal, 3.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 1.0, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 2.0, 1e-5);
}

TEST(Simplex, GreaterEqualConstraint) {
  // max -x s.t. x >= 2  ->  x = 2 (minimize x with a floor).
  LpProblem lp;
  const int x = lp.add_variable(-1.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::GreaterEqual, 2.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-5);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ConstraintType::GreaterEqual, 2.0});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, -1.0}}, ConstraintType::LessEqual, 1.0});
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, UpperBoundsAreRespected) {
  LpProblem lp;
  const int x = lp.add_variable(1.0, 2.5);
  const int y = lp.add_variable(1.0, 1.5);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 10.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.5, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 1.5, 1e-5);
}

TEST(Simplex, ZeroObjectiveIsFeasibilityCheck) {
  LpProblem lp;
  const int x = lp.add_variable(0.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::Equal, 7.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 7.0, 1e-5);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  for (int i = 0; i < 30; ++i)
    lp.add_constraint(
        {{{x, 1.0 + i * 0.0}, {y, 1.0}}, ConstraintType::LessEqual, 2.0});
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 2.0});
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-4);
}

TEST(Simplex, RandomProblemsSatisfyConstraints) {
  // Property: on random bounded-feasible LPs the returned point satisfies
  // every constraint and achieves at least the objective of the origin.
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(6));
    for (int v = 0; v < nv; ++v)
      lp.add_variable(rng.uniform(-1.0, 2.0), rng.uniform(0.5, 5.0));
    const int rows = 1 + static_cast<int>(rng.below(6));
    for (int r = 0; r < rows; ++r) {
      Constraint c;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.7))
          c.terms.emplace_back(v, rng.uniform(0.1, 2.0));
      if (c.terms.empty()) c.terms.emplace_back(0, 1.0);
      c.type = ConstraintType::LessEqual;
      c.rhs = rng.uniform(1.0, 8.0);
      lp.add_constraint(std::move(c));
    }
    const auto sol = solve_lp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal) << "trial " << trial;
    for (int r = 0; r < lp.num_rows(); ++r) {
      const auto cols = lp.row_cols(r);
      const auto coeffs = lp.row_coeffs(r);
      double lhs = 0.0;
      for (std::size_t t = 0; t < cols.size(); ++t)
        lhs += coeffs[t] * sol.x[static_cast<std::size_t>(cols[t])];
      EXPECT_LE(lhs, lp.rhs(r) + 1e-5) << "trial " << trial;
    }
    for (int v = 0; v < nv; ++v) {
      EXPECT_GE(sol.x[static_cast<std::size_t>(v)], -1e-6);
      EXPECT_LE(sol.x[static_cast<std::size_t>(v)], lp.upper_bound(v) + 1e-5);
    }
    EXPECT_GE(sol.objective, -1e-6);  // origin is feasible with objective 0
  }
}

TEST(Simplex, RejectsMalformedProblems) {
  LpProblem lp;
  lp.add_variable(1.0);
  // Terms may only be added to an open constraint...
  EXPECT_THROW(lp.add_term(0, 1.0), std::logic_error);
  // ...and must reference existing variables.
  lp.begin_constraint(ConstraintType::LessEqual, 1.0);
  EXPECT_THROW(lp.add_term(5, 1.0), std::invalid_argument);
  EXPECT_THROW(lp.add_term(-1, 1.0), std::invalid_argument);

  LpProblem lp2;
  const int x = lp2.add_variable(1.0);
  (void)x;
  EXPECT_THROW(
      lp2.add_constraint({{{5, 1.0}}, ConstraintType::LessEqual, 1.0}),
      std::invalid_argument);
}

TEST(Simplex, NoConstraintsUsesBoundsOnly) {
  // With no rows the optimum is read straight off the bounds.
  LpProblem lp;
  const int x = lp.add_variable(2.0, 3.0);
  const int y = lp.add_variable(-1.0, 5.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 0.0, 1e-7);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
}

TEST(Simplex, NoConstraintsUnboundedVariable) {
  LpProblem lp;
  lp.add_variable(1.0);  // no upper bound, no rows
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesStayFixed) {
  // ub = 0 pins a variable at zero even with a positive objective.
  LpProblem lp;
  const int x = lp.add_variable(5.0, 0.0);
  const int y = lp.add_variable(1.0, 2.0);
  lp.begin_constraint(ConstraintType::LessEqual, 10.0);
  lp.add_term(x, 1.0);
  lp.add_term(y, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 0.0, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, NegativeUpperBoundIsInfeasible) {
  LpProblem lp;
  lp.add_variable(1.0, -1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic cycling LP: Dantzig pricing with a naive ratio test
  // cycles forever on this problem; the Bland fallback must engage and
  // terminate at the optimum (0.05).
  LpProblem lp;
  const int x1 = lp.add_variable(0.75);
  const int x2 = lp.add_variable(-150.0);
  const int x3 = lp.add_variable(0.02);
  const int x4 = lp.add_variable(-6.0);
  lp.begin_constraint(ConstraintType::LessEqual, 0.0);
  lp.add_term(x1, 0.25);
  lp.add_term(x2, -60.0);
  lp.add_term(x3, -0.04);
  lp.add_term(x4, 9.0);
  lp.begin_constraint(ConstraintType::LessEqual, 0.0);
  lp.add_term(x1, 0.5);
  lp.add_term(x2, -90.0);
  lp.add_term(x3, -0.02);
  lp.add_term(x4, 3.0);
  lp.begin_constraint(ConstraintType::LessEqual, 1.0);
  lp.add_term(x3, 1.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 0.05, 1e-6);
}

TEST(Simplex, DuplicateTermsAccumulate) {
  // The same variable twice in one row must behave as the summed coeff.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.begin_constraint(ConstraintType::LessEqual, 6.0);
  lp.add_term(x, 1.0);
  lp.add_term(x, 2.0);
  const auto sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Simplex, WarmRestartUsesFewerIterations) {
  // Re-solving after a small RHS change from the saved basis must cost
  // fewer iterations than the cold solve of the same problem.
  util::Rng rng(1234);
  LpProblem lp;
  const int nv = 12;
  for (int v = 0; v < nv; ++v)
    lp.add_variable(rng.uniform(0.5, 2.0), rng.uniform(2.0, 6.0));
  for (int r = 0; r < 10; ++r) {
    lp.begin_constraint(ConstraintType::LessEqual, rng.uniform(3.0, 9.0));
    for (int v = 0; v < nv; ++v)
      if (rng.bernoulli(0.5)) lp.add_term(v, rng.uniform(0.1, 1.5));
  }

  SimplexState state;
  const auto cold = solve_lp(lp, state);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_TRUE(state.valid());

  for (int r = 0; r < lp.num_rows(); ++r)
    lp.set_rhs(r, lp.rhs(r) * 0.9);  // shrink every capacity by 10%
  const auto warm = solve_lp(lp, state);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);

  // The warm solution must match a cold re-solve of the modified problem.
  const auto cold2 = solve_lp(lp);
  ASSERT_EQ(cold2.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
}

TEST(Simplex, UnchangedProblemResolvesInstantly) {
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  SimplexState state;
  const auto cold = solve_lp(lp, state);
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  const auto warm = solve_lp(lp, state);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(Simplex, MismatchedStateFallsBackToColdStart) {
  LpProblem small;
  const int x = small.add_variable(1.0, 1.0);
  (void)x;
  SimplexState state;
  ASSERT_EQ(solve_lp(small, state).status, LpStatus::Optimal);

  // Same state against a differently-shaped problem: must not warm-start,
  // must still solve correctly, and must overwrite the stale state.
  LpProblem big;
  const int a = big.add_variable(3.0);
  const int b = big.add_variable(2.0);
  big.add_constraint({{{a, 1.0}, {b, 1.0}}, ConstraintType::LessEqual, 4.0});
  const auto sol = solve_lp(big, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 12.0, 1e-6);
  EXPECT_EQ(state.num_rows, big.num_rows());
}

// --- Dual phase and crash starts. ---

/// max 3x + 2y  s.t.  x + y <= 4,  x + y >= 1,  x in [0, 3]: x = 3, y = 1.
LpProblem dual_phase_problem() {
  LpProblem lp;
  const int x = lp.add_variable(3.0, 3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::GreaterEqual, 1.0});
  return lp;
}

TEST(Simplex, DualPhaseRepairsTightenedRightHandSide) {
  // Tightening x + y <= 4 to <= 2 leaves the optimal basis dual feasible
  // but drives y negative; the dual phase trades x down instead.
  LpProblem lp = dual_phase_problem();
  SimplexState state;
  const auto first = solve_lp(lp, state);
  ASSERT_EQ(first.status, LpStatus::Optimal);
  EXPECT_NEAR(first.objective, 11.0, 1e-9);
  EXPECT_EQ(first.dual_iterations, 0);

  lp.set_rhs(0, 2.0);
  const auto warm = solve_lp(lp, state);
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GT(warm.dual_iterations, 0);
  EXPECT_EQ(warm.iterations, warm.dual_iterations);  // nothing left for primal
  EXPECT_NEAR(warm.objective, 6.0, 1e-9);
  EXPECT_NEAR(warm.x[0], 2.0, 1e-9);
  EXPECT_NEAR(warm.x[1], 0.0, 1e-9);
}

TEST(Simplex, DualPhaseHandsOverWhenTighteningMakesInfeasible) {
  // x + y <= 0.5 against x + y >= 1: the dual phase finds no column that
  // repairs the surplus row, hands over, and phase 1 proves infeasibility.
  LpProblem lp = dual_phase_problem();
  SimplexState state;
  ASSERT_EQ(solve_lp(lp, state).status, LpStatus::Optimal);
  lp.set_rhs(0, 0.5);
  const auto warm = solve_lp(lp, state);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.status, LpStatus::Infeasible);
  EXPECT_EQ(solve_lp_dense(lp).status, LpStatus::Infeasible);

  // Loosening again recovers the original optimum from whatever basis
  // the infeasible solve left.
  lp.set_rhs(0, 4.0);
  const auto back = solve_lp(lp, state);
  ASSERT_EQ(back.status, LpStatus::Optimal);
  EXPECT_NEAR(back.objective, 11.0, 1e-9);
}

TEST(Simplex, KeptSolverRereadsBoundsAndRejectsShapeChanges) {
  // max x s.t. x <= b: the solver re-reads the right-hand side and the
  // bound at every solve, and refuses a problem that grew a row.
  LpProblem lp;
  const int x = lp.add_variable(1.0, 10.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 4.0});
  LpSolver solver(lp);
  SimplexState state;
  EXPECT_NEAR(solver.solve(state).objective, 4.0, 1e-9);
  lp.set_rhs(0, 7.0);
  EXPECT_NEAR(solver.solve(state).objective, 7.0, 1e-9);
  lp.set_upper_bound(x, 5.0);
  EXPECT_NEAR(solver.solve(state).objective, 5.0, 1e-9);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 1.0});
  EXPECT_THROW(solver.solve(state), std::logic_error);
}

TEST(Simplex, CrashStateSkipsRepeatsAndRejectsOutOfRange) {
  LpProblem lp = dual_phase_problem();  // 2 structural columns, 2 rows
  const std::vector<std::pair<int, int>> hint{{1, 0}, {1, 1}, {0, 0}, {0, 1}};
  const SimplexState state = crash_state(lp, hint);
  EXPECT_TRUE(state.crash);
  EXPECT_EQ(state.num_rows, 2);
  EXPECT_EQ(state.num_cols, 4);  // 2 structural + 2 slacks
  // (1, 0) placed; (1, 1) repeats column 1; (0, 0) finds row 0 taken;
  // (0, 1) is placed.
  EXPECT_EQ(state.basis, (std::vector<std::int32_t>{1, 0}));
  EXPECT_EQ(state.at_upper, (std::vector<std::uint8_t>(4, 0)));

  for (const auto& bad : std::vector<std::pair<int, int>>{
           {-1, 0}, {2, 0}, {0, -1}, {0, 2}}) {
    const std::vector<std::pair<int, int>> one{bad};
    EXPECT_THROW(crash_state(lp, one), std::invalid_argument);
  }

  // An empty hint is the slack basis itself, installed as a crash start.
  SimplexState slack = crash_state(lp, {});
  const auto sol = solve_lp(lp, slack);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.crash_started);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 11.0, 1e-9);
  EXPECT_FALSE(slack.crash);
}

TEST(Simplex, SingularCrashBasisFallsBackToSlackStart) {
  // Columns x and z are parallel: placing both makes the basis singular,
  // so the solve starts from the slacks and still reaches the optimum.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int z = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {z, 2.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {z, 2.0}}, ConstraintType::LessEqual, 6.0});
  const std::vector<std::pair<int, int>> hint{{x, 0}, {z, 1}};
  SimplexState state = crash_state(lp, hint);
  const auto sol = solve_lp(lp, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_FALSE(sol.crash_started);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

// --- Regressions found by the LP property campaign
// (simplex_property_test.cpp). ---

TEST(Simplex, FixedColumnLeavesTheBasisAtLower) {
  // A crash basis may hold a column fixed at zero. Driven out of the basis
  // it must be recorded at its lower bound: an at-upper flag on a fixed
  // structural column is not an installable state (the snapshot validator
  // rejects it), although both bounds coincide.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int fixed = lp.add_variable(1.0, 0.0);
  lp.add_constraint({{{x, 1.0}, {fixed, 1.0}}, ConstraintType::LessEqual,
                     2.0});
  const std::vector<std::pair<int, int>> hint{{fixed, 0}};
  SimplexState state = crash_state(lp, hint);
  const auto sol = solve_lp(lp, state);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.crash_started);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_EQ(state.at_upper[static_cast<std::size_t>(fixed)], 0);
  check_simplex_state_invariants(lp, state);

  // The dual phase drives a basic column whose bound dropped to zero out
  // the same way.
  LpProblem shrink = dual_phase_problem();
  SimplexState warm;
  ASSERT_EQ(solve_lp(shrink, warm).status, LpStatus::Optimal);
  shrink.set_upper_bound(1, 0.0);  // y was basic at 1
  const auto resolved = solve_lp(shrink, warm);
  ASSERT_EQ(resolved.status, LpStatus::Optimal);
  EXPECT_NEAR(resolved.objective, 9.0, 1e-9);
  EXPECT_EQ(warm.at_upper[1], 0);
  check_simplex_state_invariants(shrink, warm);
}

TEST(Simplex, DenseOracleKeepsPhaseOneArtificialsAtZero) {
  // -2 x0 = 0 pins x0 to zero, but the dense oracle left that row's
  // artificial basic at zero after phase 1, and phase 2 let it rise while
  // x0 entered (objective 21.5 with x0 = 1.5). Both solvers must report
  // 20.5 with x0 = 0.
  LpProblem lp;
  const int x0 = lp.add_variable(1.0, 3.0);
  const int x1 = lp.add_variable(2.0, 4.0);
  const int x2 = lp.add_variable(2.0, 6.0);
  const int x3 = lp.add_variable(0.5, 2.0);
  lp.begin_constraint(ConstraintType::GreaterEqual, 0.0);  // empty row
  lp.add_constraint(
      {{{x0, -1.0}, {x0, 1.0}, {x1, 2.0}}, ConstraintType::GreaterEqual, 2.0});
  lp.add_constraint({{{x0, 3.0}, {x3, 3.0}}, ConstraintType::LessEqual, 9.0});
  lp.add_constraint({{{x0, -1.0}}, ConstraintType::LessEqual, 1.0});
  lp.add_constraint({{{x0, 2.0}, {x3, 3.0}}, ConstraintType::LessEqual, 3.0});
  lp.add_constraint({{{x0, -2.0}}, ConstraintType::Equal, 0.0});
  (void)x2;
  for (const auto& sol : {solve_lp(lp), solve_lp_dense(lp)}) {
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 20.5, 1e-6);
    EXPECT_NEAR(sol.x[static_cast<std::size_t>(x0)], 0.0, 1e-6);
  }
}

}  // namespace
}  // namespace surfnet::routing
