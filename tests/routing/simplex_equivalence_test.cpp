#include <gtest/gtest.h>

#include "dense_simplex.h"
#include "netsim/schedule.h"
#include "netsim/topology.h"
#include "routing/formulation.h"
#include "routing/simplex.h"
#include "util/rng.h"

// The sparse revised simplex must be a drop-in replacement for the dense
// tableau it displaced: same LpStatus on every problem, objectives within
// 1e-6 whenever both report Optimal. The dense path carries a deterministic
// 1e-7 anti-degeneracy perturbation, so exact variable values may differ
// (alternate optima); only status and objective are contractual.

namespace surfnet::routing {
namespace {

void expect_equivalent(const LpProblem& lp, const std::string& label) {
  const LpSolution sparse = LpSolver(lp).solve();
  const LpSolution dense = solve_lp_dense(lp);
  ASSERT_EQ(sparse.status, dense.status) << label;
  if (sparse.status != LpStatus::Optimal) return;
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << label;
  // The sparse point must itself be feasible.
  for (int r = 0; r < lp.num_rows(); ++r) {
    const auto cols = lp.row_cols(r);
    const auto coeffs = lp.row_coeffs(r);
    double lhs = 0.0;
    for (std::size_t t = 0; t < cols.size(); ++t)
      lhs += coeffs[t] * sparse.x[static_cast<std::size_t>(cols[t])];
    switch (lp.row_type(r)) {
      case ConstraintType::LessEqual:
        EXPECT_LE(lhs, lp.rhs(r) + 1e-5) << label << " row " << r;
        break;
      case ConstraintType::GreaterEqual:
        EXPECT_GE(lhs, lp.rhs(r) - 1e-5) << label << " row " << r;
        break;
      case ConstraintType::Equal:
        EXPECT_NEAR(lhs, lp.rhs(r), 1e-5) << label << " row " << r;
        break;
    }
  }
  for (int v = 0; v < lp.num_vars(); ++v) {
    EXPECT_GE(sparse.x[static_cast<std::size_t>(v)], -1e-6);
    EXPECT_LE(sparse.x[static_cast<std::size_t>(v)],
              lp.upper_bound(v) + 1e-5);
  }
}

TEST(SimplexEquivalence, RandomMixedConstraintProblems) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(8));
    for (int v = 0; v < nv; ++v) {
      const double ub =
          rng.bernoulli(0.7) ? rng.uniform(0.5, 6.0) : LpProblem::kInfinity;
      lp.add_variable(rng.uniform(-1.0, 2.0), ub);
    }
    const int rows = 1 + static_cast<int>(rng.below(8));
    for (int r = 0; r < rows; ++r) {
      // Mostly <= capacities (keeps the origin feasible often enough that
      // both Optimal and Infeasible outcomes are exercised), with a mix of
      // >= floors and = couplings.
      ConstraintType type = ConstraintType::LessEqual;
      const double roll = rng.uniform(0.0, 1.0);
      if (roll > 0.85)
        type = ConstraintType::Equal;
      else if (roll > 0.7)
        type = ConstraintType::GreaterEqual;
      lp.begin_constraint(type, rng.uniform(0.5, 8.0));
      int terms = 0;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.6)) {
          lp.add_term(v, rng.uniform(0.1, 2.0));
          ++terms;
        }
      if (terms == 0) lp.add_term(0, 1.0);
    }
    expect_equivalent(lp, "trial " + std::to_string(trial));
  }
}

TEST(SimplexEquivalence, RandomProblemsWithNegativeCoefficients) {
  // Negative coefficients produce negative effective RHS after folding and
  // exercise the phase-1 repair path of the sparse solver.
  util::Rng rng(777);
  int optimal = 0;
  for (int trial = 0; trial < 80; ++trial) {
    LpProblem lp;
    const int nv = 2 + static_cast<int>(rng.below(5));
    for (int v = 0; v < nv; ++v)
      lp.add_variable(rng.uniform(-1.5, 1.5), rng.uniform(1.0, 4.0));
    const int rows = 1 + static_cast<int>(rng.below(5));
    for (int r = 0; r < rows; ++r) {
      const ConstraintType type = rng.bernoulli(0.5)
                                      ? ConstraintType::LessEqual
                                      : ConstraintType::GreaterEqual;
      lp.begin_constraint(type, rng.uniform(-3.0, 3.0));
      int terms = 0;
      for (int v = 0; v < nv; ++v)
        if (rng.bernoulli(0.6)) {
          lp.add_term(v, rng.uniform(-2.0, 2.0));
          ++terms;
        }
      if (terms == 0) lp.add_term(0, 1.0);
    }
    const LpSolution sparse = LpSolver(lp).solve();
    if (sparse.status == LpStatus::Optimal) ++optimal;
    expect_equivalent(lp, "trial " + std::to_string(trial));
  }
  EXPECT_GT(optimal, 10);  // the suite must not be vacuously infeasible
}

TEST(SimplexEquivalence, RoutingFormulationsMatchDense) {
  // Seed-scale routing LPs: the exact problem family the solver exists
  // for, both the SurfNet dual-channel formulation and the Raw baseline.
  for (const std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    netsim::TopologySpec spec;
    spec.num_nodes = 16;
    spec.num_servers = 2;
    spec.num_switches = 5;
    spec.storage_capacity = 100;
    spec.entanglement_capacity = 30;
    util::Rng rng(seed);
    const auto topo = netsim::make_random_topology(spec, rng);
    const auto requests = netsim::random_requests(topo, 4, 3, rng);

    for (const bool dual : {true, false}) {
      RoutingParams params;
      params.dual_channel = dual;
      const RoutingFormulation formulation(topo, requests, params);
      expect_equivalent(formulation.problem(),
                        "seed " + std::to_string(seed) +
                            (dual ? " dual" : " raw"));
    }
  }
}

}  // namespace
}  // namespace surfnet::routing
