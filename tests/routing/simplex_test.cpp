#include "routing/simplex.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dense_simplex.h"
#include "util/contracts.h"
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
  const auto sol = LpSolver(lp).solve();
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
  const auto sol = LpSolver(lp).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 8.0 / 3.0, 1e-5);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, obj=5.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0, 2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::Equal, 3.0});
  const auto sol = LpSolver(lp).solve();
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
  const auto sol = LpSolver(lp).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-5);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 1.0});
  lp.add_constraint({{{x, 1.0}}, ConstraintType::GreaterEqual, 2.0});
  EXPECT_EQ(LpSolver(lp).solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{{x, -1.0}}, ConstraintType::LessEqual, 1.0});
  EXPECT_EQ(LpSolver(lp).solve().status, LpStatus::Unbounded);
}

TEST(Simplex, UpperBoundsAreRespected) {
  LpProblem lp;
  const int x = lp.add_variable(1.0, 2.5);
  const int y = lp.add_variable(1.0, 1.5);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 10.0});
  const auto sol = LpSolver(lp).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.5, 1e-5);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 1.5, 1e-5);
}

TEST(Simplex, ZeroObjectiveIsFeasibilityCheck) {
  LpProblem lp;
  const int x = lp.add_variable(0.0);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::Equal, 7.0});
  const auto sol = LpSolver(lp).solve();
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
  const auto sol = LpSolver(lp).solve();
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
    const auto sol = LpSolver(lp).solve();
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
  const auto sol = LpSolver(lp).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 0.0, 1e-7);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
}

TEST(Simplex, NoConstraintsUnboundedVariable) {
  LpProblem lp;
  lp.add_variable(1.0);  // no upper bound, no rows
  EXPECT_EQ(LpSolver(lp).solve().status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesStayFixed) {
  // ub = 0 pins a variable at zero even with a positive objective.
  LpProblem lp;
  const int x = lp.add_variable(5.0, 0.0);
  const int y = lp.add_variable(1.0, 2.0);
  lp.begin_constraint(ConstraintType::LessEqual, 10.0);
  lp.add_term(x, 1.0);
  lp.add_term(y, 1.0);
  const auto sol = LpSolver(lp).solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 0.0, 1e-9);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, NegativeUpperBoundIsInfeasible) {
  LpProblem lp;
  lp.add_variable(1.0, -1.0);
  EXPECT_EQ(LpSolver(lp).solve().status, LpStatus::Infeasible);
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
  const auto sol = LpSolver(lp).solve();
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
  const auto sol = LpSolver(lp).solve();
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

  LpSolver solver(lp);
  const auto cold = solver.solve();
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_FALSE(cold.warm_started);

  for (int r = 0; r < lp.num_rows(); ++r)
    lp.set_rhs(r, lp.rhs(r) * 0.9);  // shrink every capacity by 10%
  const auto warm = solver.solve();
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);

  // The warm solution must match a cold re-solve of the modified problem.
  const auto cold2 = LpSolver(lp).solve();
  ASSERT_EQ(cold2.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-6);
}

TEST(Simplex, UnchangedProblemResolvesInstantly) {
  LpProblem lp;
  const int x = lp.add_variable(3.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{{x, 1.0}, {y, 1.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {y, 3.0}}, ConstraintType::LessEqual, 6.0});
  LpSolver solver(lp);
  const auto cold = solver.solve();
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  const auto warm = solver.solve();
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
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
  LpSolver solver(lp);
  const auto first = solver.solve();
  ASSERT_EQ(first.status, LpStatus::Optimal);
  EXPECT_NEAR(first.objective, 11.0, 1e-9);
  EXPECT_EQ(first.dual_iterations, 0);

  lp.set_rhs(0, 2.0);
  const auto warm = solver.solve();
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
  LpSolver solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::Optimal);
  lp.set_rhs(0, 0.5);
  const auto warm = solver.solve();
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.status, LpStatus::Infeasible);
  EXPECT_EQ(solve_lp_dense(lp).status, LpStatus::Infeasible);

  // Loosening again recovers the original optimum from whatever basis
  // the infeasible solve left.
  lp.set_rhs(0, 4.0);
  const auto back = solver.solve();
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
  EXPECT_NEAR(solver.solve().objective, 4.0, 1e-9);
  lp.set_rhs(0, 7.0);
  EXPECT_NEAR(solver.solve().objective, 7.0, 1e-9);
  lp.set_upper_bound(x, 5.0);
  EXPECT_NEAR(solver.solve().objective, 5.0, 1e-9);
  lp.add_constraint({{{x, 1.0}}, ConstraintType::LessEqual, 1.0});
  EXPECT_THROW(solver.solve(), std::logic_error);
}

TEST(Simplex, CrashStateSkipsRepeatsAndRejectsOutOfRange) {
  // max x + y  s.t.  x + 2y <= 4,  2x + y <= 5: the optimum x = 2, y = 1
  // has both columns basic, so only a crash basis of exactly {x, y} starts
  // there and needs no pivot.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {y, 2.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ConstraintType::LessEqual, 5.0});
  LpSolver solver(lp);
  // (y, 0) placed; (y, 1) repeats column y; (x, 0) finds row 0 taken;
  // (x, 1) is placed.
  const std::vector<std::pair<int, int>> hint{{y, 0}, {y, 1}, {x, 0}, {x, 1}};
  solver.crash(hint);
  const auto sol = solver.solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.crash_started);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_EQ(sol.iterations, 0);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);

  for (const auto& bad : std::vector<std::pair<int, int>>{
           {-1, 0}, {2, 0}, {0, -1}, {0, 2}}) {
    const std::vector<std::pair<int, int>> one{bad};
    EXPECT_THROW(solver.crash(one), std::invalid_argument);
  }

  // An empty hint is the slack basis itself, installed as a crash start;
  // the solve keeps its own basis, so the next solve is warm.
  LpProblem dual = dual_phase_problem();
  LpSolver slack(dual);
  slack.crash({});
  const auto first = slack.solve();
  ASSERT_EQ(first.status, LpStatus::Optimal);
  EXPECT_TRUE(first.crash_started);
  EXPECT_FALSE(first.warm_started);
  EXPECT_NEAR(first.objective, 11.0, 1e-9);
  const auto again = slack.solve();
  EXPECT_FALSE(again.crash_started);
  EXPECT_TRUE(again.warm_started);
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
  LpSolver solver(lp);
  solver.crash(hint);
  const auto sol = solver.solve();
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_FALSE(sol.crash_started);
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

// --- Where a kept solver starts: one test per restart rule. ---

/// max x + y  s.t.  x + 2y <= 4,  2x + y <= 5: the cold start needs
/// pivots, the optimal basis {x, y} none.
LpProblem two_pivot_problem() {
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {y, 2.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 2.0}, {y, 1.0}}, ConstraintType::LessEqual, 5.0});
  return lp;
}

/// The same solve, bit for bit: status, counters, start flags, objective.
void expect_same_solve(const LpSolution& got, const LpSolution& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.dual_iterations, want.dual_iterations);
  EXPECT_EQ(got.refactorizations, want.refactorizations);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.crash_started, want.crash_started);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(want.objective));
}

TEST(LpSolverRestart, EmptyBoxMakesTheNextSolveCold) {
  // An empty box returns before any basis work and drops the basis the
  // solver kept, or the crash basis it was given: the next solve is cold.
  LpProblem lp = two_pivot_problem();
  const LpSolution cold = LpSolver(lp).solve();
  ASSERT_GT(cold.iterations, 0);
  LpSolver solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::Optimal);
  for (const bool crash_first : {false, true}) {
    if (crash_first) solver.crash(std::vector<std::pair<int, int>>{{0, 0}});
    lp.set_upper_bound(0, -1.0);
    const LpSolution empty = solver.solve();
    EXPECT_EQ(empty.status, LpStatus::Infeasible);
    EXPECT_EQ(empty.iterations, 0);
    EXPECT_EQ(empty.refactorizations, 0);
    EXPECT_FALSE(empty.warm_started);
    EXPECT_FALSE(empty.crash_started);
    lp.set_upper_bound(0, LpProblem::kInfinity);
    expect_same_solve(solver.solve(), cold);
  }
}

TEST(LpSolverRestart, NoRowsNeverWarmOrCrash) {
  // max x + 2y with x <= 3, y <= 1 and no rows: both columns flip to their
  // upper bounds. With no rows there is no basis to keep, so every solve
  // starts cold and flips them again, and crash() accepts only an empty
  // hint.
  LpProblem lp;
  const int x = lp.add_variable(1.0, 3.0);
  lp.add_variable(2.0, 1.0);
  LpSolver solver(lp);
  const LpSolution first = solver.solve();
  ASSERT_EQ(first.status, LpStatus::Optimal);
  EXPECT_EQ(first.iterations, 2);
  EXPECT_NEAR(first.objective, 5.0, 1e-12);
  EXPECT_FALSE(first.warm_started);
  EXPECT_FALSE(first.crash_started);
  expect_same_solve(solver.solve(), first);
  solver.crash({});
  expect_same_solve(solver.solve(), first);
  EXPECT_THROW(solver.crash(std::vector<std::pair<int, int>>{{x, 0}}),
               std::invalid_argument);
}

TEST(LpSolverRestart, CrashBetweenSolvesReplacesTheKeptBasis) {
  // The kept optimal basis re-solves with no pivot; an empty crash hint
  // (the slack basis) replaces it, so the next solve pivots like the cold
  // one and reports a crash start. The solve after it is warm again.
  const LpProblem lp = two_pivot_problem();
  LpSolver solver(lp);
  const LpSolution cold = solver.solve();
  ASSERT_GT(cold.iterations, 0);
  const LpSolution warm = solver.solve();
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  solver.crash({});
  const LpSolution crash = solver.solve();
  EXPECT_TRUE(crash.crash_started);
  EXPECT_FALSE(crash.warm_started);
  EXPECT_EQ(crash.iterations, cold.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(crash.objective),
            std::bit_cast<std::uint64_t>(cold.objective));
  EXPECT_TRUE(solver.solve().warm_started);
}

TEST(LpSolverRestart, SingularCrashBasisFallsBackToCold) {
  // x and z are parallel columns, so a crash basis holding both cannot be
  // factorized. It still replaces the kept basis: the next solve starts
  // cold, not from the optimum the solver kept.
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int z = lp.add_variable(1.0);
  lp.add_constraint({{{x, 1.0}, {z, 2.0}}, ConstraintType::LessEqual, 4.0});
  lp.add_constraint({{{x, 1.0}, {z, 2.0}}, ConstraintType::LessEqual, 6.0});
  const LpSolution cold = LpSolver(lp).solve();
  LpSolver solver(lp);
  ASSERT_EQ(solver.solve().status, LpStatus::Optimal);
  solver.crash(std::vector<std::pair<int, int>>{{x, 0}, {z, 1}});
  const LpSolution fallback = solver.solve();
  EXPECT_FALSE(fallback.crash_started);
  EXPECT_FALSE(fallback.warm_started);
  // One failed refactorization more than the cold solve.
  EXPECT_EQ(fallback.refactorizations, cold.refactorizations + 1);
  EXPECT_EQ(fallback.iterations, cold.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fallback.objective),
            std::bit_cast<std::uint64_t>(cold.objective));
}

TEST(LpSolverRestart, OutOfRangePairThrowsAndKeepsTheBasis) {
  // A hint with an out-of-range column or row throws before it touches the
  // basis: the kept optimum, or an earlier crash basis, still starts the
  // next solve.
  const LpProblem lp = two_pivot_problem();
  LpSolver solver(lp);
  ASSERT_GT(solver.solve().iterations, 0);
  const std::vector<std::pair<int, int>> bad{{0, 0}, {0, 2}};
  EXPECT_THROW(solver.crash(bad), std::invalid_argument);
  const LpSolution warm = solver.solve();
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  solver.crash(std::vector<std::pair<int, int>>{{0, 0}, {1, 1}});
  EXPECT_THROW(solver.crash(std::vector<std::pair<int, int>>{{-1, 0}}),
               std::invalid_argument);
  EXPECT_TRUE(solver.solve().crash_started);
}

// --- Regressions found by the LP property campaign
// (simplex_property_test.cpp). ---

TEST(Simplex, FixedColumnLeavesTheBasisAtLower) {
  // A crash basis may hold a column fixed at zero. Driven out of the basis
  // it must be recorded at its lower bound: a structural column at its
  // upper bound needs a positive bound to rest on, although both bounds
  // coincide. Under SURFNET_CHECKS every solve ends by checking the basis
  // it keeps, which the throwing handler turns into an exception.
  util::ScopedContractHandler scoped(util::throw_contract_violation);
  LpProblem lp;
  const int x = lp.add_variable(1.0);
  const int fixed = lp.add_variable(1.0, 0.0);
  lp.add_constraint({{{x, 1.0}, {fixed, 1.0}}, ConstraintType::LessEqual,
                     2.0});
  const std::vector<std::pair<int, int>> hint{{fixed, 0}};
  LpSolver solver(lp);
  solver.crash(hint);
  LpSolution sol;
  ASSERT_NO_THROW(sol = solver.solve());
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.crash_started);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);

  // With z priced the wrong way for a dual phase, the primal ratio test
  // drives the fixed column out instead.
  LpProblem primal;
  const int px = primal.add_variable(1.0);
  const int pfixed = primal.add_variable(1.0, 0.0);
  const int pz = primal.add_variable(2.0);
  primal.add_constraint({{{px, 1.0}, {pfixed, 1.0}}, ConstraintType::LessEqual,
                         2.0});
  primal.add_constraint({{{pz, 1.0}}, ConstraintType::LessEqual, 1.0});
  LpSolver by_primal(primal);
  by_primal.crash(std::vector<std::pair<int, int>>{{pfixed, 0}});
  ASSERT_NO_THROW(sol = by_primal.solve());
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_TRUE(sol.crash_started);
  EXPECT_EQ(sol.dual_iterations, 0);
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);

  // The dual phase drives a basic column whose bound dropped to zero out
  // the same way.
  LpProblem shrink = dual_phase_problem();
  LpSolver warm(shrink);
  ASSERT_EQ(warm.solve().status, LpStatus::Optimal);
  shrink.set_upper_bound(1, 0.0);  // y was basic at 1
  LpSolution resolved;
  ASSERT_NO_THROW(resolved = warm.solve());
  ASSERT_EQ(resolved.status, LpStatus::Optimal);
  EXPECT_TRUE(resolved.warm_started);
  EXPECT_NEAR(resolved.objective, 9.0, 1e-9);
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
  for (const auto& sol : {LpSolver(lp).solve(), solve_lp_dense(lp)}) {
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 20.5, 1e-6);
    EXPECT_NEAR(sol.x[static_cast<std::size_t>(x0)], 0.0, 1e-6);
  }
}

}  // namespace
}  // namespace surfnet::routing
