#pragma once

// Random LpProblems for the LP property campaign and the LP pin: <=, >=
// and = rows, finite, infinite and fixed (u = 0) bounds, empty rows,
// duplicate rows, duplicate terms and zero right-hand sides. Coefficients
// and right-hand sides are small integers, so a problem is feasible or
// infeasible by a wide margin. Every value is a pure function of the Rng.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "../proptest.h"
#include "routing/simplex.h"
#include "util/rng.h"

namespace surfnet::routing::random_lp {

inline double upper_bound(util::Rng& rng) {
  const double roll = proptest::real_in(rng, 0.0, 1.0);
  if (roll < 0.25) return LpProblem::kInfinity;
  if (roll < 0.40) return 0.0;  // fixed column
  return proptest::int_in(rng, 1, 6);
}

inline ConstraintType row_type(util::Rng& rng) {
  const double roll = proptest::real_in(rng, 0.0, 1.0);
  if (roll < 0.5) return ConstraintType::LessEqual;
  if (roll < 0.75) return ConstraintType::GreaterEqual;
  return ConstraintType::Equal;
}

inline LpProblem problem(util::Rng& rng) {
  LpProblem lp;
  const int nv = proptest::int_in(rng, 1, 8);
  for (int v = 0; v < nv; ++v)
    lp.add_variable(0.5 * proptest::int_in(rng, -3, 4), upper_bound(rng));
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
      lp.begin_constraint(same ? lp.row_type(src) : row_type(rng),
                          same ? lp.rhs(src) : rhs);
      for (std::size_t t = 0; t < dup_cols.size(); ++t)
        lp.add_term(dup_cols[t], dup_vals[t]);
      continue;
    }
    lp.begin_constraint(row_type(rng), rhs);
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

/// Crash hint of up to 2 * num_vars (column, row) pairs, in range, with
/// exact duplicates, reused columns and taken rows mixed in.
inline std::vector<std::pair<int, int>> hint(util::Rng& rng,
                                             const LpProblem& lp) {
  std::vector<std::pair<int, int>> pairs;
  if (lp.num_rows() == 0) return pairs;
  const int count = proptest::int_in(rng, 0, 2 * lp.num_vars());
  for (int i = 0; i < count; ++i) {
    if (!pairs.empty() && proptest::chance(rng, 0.15)) {
      pairs.push_back(proptest::pick(rng, pairs));  // exact duplicate
      continue;
    }
    pairs.emplace_back(proptest::int_in(rng, 0, lp.num_vars() - 1),
                       proptest::int_in(rng, 0, lp.num_rows() - 1));
  }
  return pairs;
}

/// One warm-chain step: shift some right-hand sides and finite bounds, so
/// an optimal basis of the previous step stays dual feasible.
inline void perturb(util::Rng& rng, LpProblem& lp) {
  for (int r = 0; r < lp.num_rows(); ++r)
    if (proptest::chance(rng, 0.4))
      lp.set_rhs(r, lp.rhs(r) + proptest::int_in(rng, -3, 3));
  for (int v = 0; v < lp.num_vars(); ++v)
    if (std::isfinite(lp.upper_bound(v)) && proptest::chance(rng, 0.3))
      lp.set_upper_bound(v, std::max(0, static_cast<int>(lp.upper_bound(v)) +
                                            proptest::int_in(rng, -2, 2)));
}

}  // namespace surfnet::routing::random_lp
