#include "dense_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace surfnet::routing {

namespace {

constexpr double kEps = 1e-9;

/// One constraint row in the solver's working form.
struct DenseRow {
  std::vector<std::pair<int, double>> terms;
  ConstraintType type = ConstraintType::LessEqual;
  double rhs = 0.0;
};

/// Dense tableau with an explicit cost row. Columns: structural variables,
/// then slacks/surpluses, then artificials, then the RHS.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Gaussian pivot on (pr, pc), also applied to the cost row `z`.
  void pivot(std::size_t pr, std::size_t pc, std::vector<double>& z) {
    const double pivot_value = at(pr, pc);
    double* prow = &data_[pr * cols_];
    const double inv = 1.0 / pivot_value;
    for (std::size_t c = 0; c < cols_; ++c) prow[c] *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = &data_[r * cols_];
      const double factor = row[pc];
      if (std::abs(factor) < kEps) {
        row[pc] = 0.0;
        continue;
      }
      for (std::size_t c = 0; c < cols_; ++c) row[c] -= factor * prow[c];
      row[pc] = 0.0;
    }
    const double zfactor = z[pc];
    if (std::abs(zfactor) >= kEps) {
      for (std::size_t c = 0; c < cols_; ++c) z[c] -= zfactor * prow[c];
      z[pc] = 0.0;
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace

LpSolution solve_lp_dense(const LpProblem& problem) {
  LpSolution solution;
  const std::size_t n = static_cast<std::size_t>(problem.num_vars());

  // Materialize upper-bound rows, then normalize every row to rhs >= 0.
  std::vector<DenseRow> rows;
  rows.reserve(static_cast<std::size_t>(problem.num_rows()) + n);
  for (int r = 0; r < problem.num_rows(); ++r) {
    DenseRow row;
    const auto cols = problem.row_cols(r);
    const auto coeffs = problem.row_coeffs(r);
    row.terms.reserve(cols.size());
    for (std::size_t t = 0; t < cols.size(); ++t)
      row.terms.emplace_back(cols[t], coeffs[t]);
    row.type = problem.row_type(r);
    row.rhs = problem.rhs(r);
    rows.push_back(std::move(row));
  }
  for (std::size_t v = 0; v < n; ++v) {
    const double ub = problem.upper_bound(static_cast<int>(v));
    if (std::isfinite(ub)) {
      DenseRow row;
      row.terms.emplace_back(static_cast<int>(v), 1.0);
      row.type = ConstraintType::LessEqual;
      row.rhs = ub;
      rows.push_back(std::move(row));
    }
  }
  const std::size_t m = rows.size();

  // Anti-degeneracy: perturb the right-hand side of inequality rows by a
  // tiny deterministic amount. Network-flow LPs like the routing
  // formulation are massively degenerate (many zero-RHS rows) and stall
  // the plain simplex otherwise. Equality rows must stay exact.
  {
    std::uint64_t mix = 0x9E3779B97F4A7C15ULL;
    for (auto& row : rows) {
      if (row.type == ConstraintType::Equal) continue;
      mix ^= mix << 13;
      mix ^= mix >> 7;
      mix ^= mix << 17;
      const double jitter =
          1e-9 * (1.0 + static_cast<double>(mix % 1024) / 1024.0);
      row.rhs += (row.type == ConstraintType::LessEqual) ? jitter : -jitter;
    }
  }

  // Count auxiliary columns.
  std::size_t num_slack = 0, num_artificial = 0;
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (auto& [var, coeff] : row.terms) coeff = -coeff;
      if (row.type == ConstraintType::LessEqual)
        row.type = ConstraintType::GreaterEqual;
      else if (row.type == ConstraintType::GreaterEqual)
        row.type = ConstraintType::LessEqual;
    }
    switch (row.type) {
      case ConstraintType::LessEqual:
        ++num_slack;
        break;
      case ConstraintType::GreaterEqual:
        ++num_slack;
        ++num_artificial;
        break;
      case ConstraintType::Equal:
        ++num_artificial;
        break;
    }
  }

  const std::size_t total = n + num_slack + num_artificial;
  const std::size_t rhs_col = total;
  Tableau tableau(m, total + 1);
  std::vector<int> basis(m, -1);
  const std::size_t art_begin = n + num_slack;

  std::size_t slack_cursor = n;
  std::size_t art_cursor = art_begin;
  for (std::size_t r = 0; r < m; ++r) {
    for (const auto& [var, coeff] : rows[r].terms)
      tableau.at(r, static_cast<std::size_t>(var)) += coeff;
    tableau.at(r, rhs_col) = rows[r].rhs;
    switch (rows[r].type) {
      case ConstraintType::LessEqual:
        tableau.at(r, slack_cursor) = 1.0;
        basis[r] = static_cast<int>(slack_cursor++);
        break;
      case ConstraintType::GreaterEqual:
        tableau.at(r, slack_cursor) = -1.0;
        ++slack_cursor;
        tableau.at(r, art_cursor) = 1.0;
        basis[r] = static_cast<int>(art_cursor++);
        break;
      case ConstraintType::Equal:
        tableau.at(r, art_cursor) = 1.0;
        basis[r] = static_cast<int>(art_cursor++);
        break;
    }
  }

  // Cost row for the current phase: z[j] is the reduced cost of column j.
  std::vector<double> z(total + 1, 0.0);
  auto rebuild_cost_row = [&](const std::vector<double>& cost) {
    std::fill(z.begin(), z.end(), 0.0);
    for (std::size_t j = 0; j < total; ++j) z[j] = cost[j];
    for (std::size_t r = 0; r < m; ++r) {
      const double cb = cost[static_cast<std::size_t>(basis[r])];
      if (cb == 0.0) continue;
      for (std::size_t c = 0; c <= total; ++c)
        z[c] -= cb * tableau.at(r, c);
    }
  };

  // Run simplex iterations with the current cost row. `allowed` masks
  // columns that may enter the basis.
  const long max_iterations =
      4096 + 8 * static_cast<long>(m) + 4 * static_cast<long>(total);
  long total_iterations = 0;
  auto iterate = [&](const std::vector<char>& allowed) -> LpStatus {
    long iterations = 0;
    const long bland_after = max_iterations / 2;
    while (true) {
      if (++iterations > max_iterations) return LpStatus::IterationLimit;
      ++total_iterations;
      // Entering column: Dantzig first, Bland when degeneracy drags on.
      std::size_t entering = total;
      if (iterations < bland_after) {
        double best = kEps;
        for (std::size_t j = 0; j < total; ++j)
          if (allowed[j] && z[j] > best) {
            best = z[j];
            entering = j;
          }
      } else {
        for (std::size_t j = 0; j < total; ++j)
          if (allowed[j] && z[j] > kEps) {
            entering = j;
            break;
          }
      }
      if (entering == total) return LpStatus::Optimal;

      // Ratio test (Bland tie-break on the leaving basis variable). A
      // basic column that may not enter — an artificial phase 1 left in
      // the basis at zero — must not move either, so it blocks whichever
      // way the entering column pushes it.
      std::size_t leaving = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        const double a = tableau.at(r, entering);
        if (a > kEps ||
            (a < -kEps && !allowed[static_cast<std::size_t>(basis[r])])) {
          const double ratio = tableau.at(r, rhs_col) / std::abs(a);
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leaving < m &&
               basis[r] < basis[leaving])) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == m) return LpStatus::Unbounded;
      tableau.pivot(leaving, entering, z);
      basis[leaving] = static_cast<int>(entering);
    }
  };

  // --- Phase 1: drive artificials to zero. ---
  if (num_artificial > 0) {
    std::vector<double> phase1_cost(total, 0.0);
    for (std::size_t j = art_begin; j < total; ++j) phase1_cost[j] = -1.0;
    rebuild_cost_row(phase1_cost);
    std::vector<char> allowed(total, 1);
    const LpStatus status = iterate(allowed);
    if (status == LpStatus::IterationLimit) {
      solution.status = status;
      solution.iterations = static_cast<int>(total_iterations);
      return solution;
    }
    double infeasibility = 0.0;
    for (std::size_t r = 0; r < m; ++r)
      if (static_cast<std::size_t>(basis[r]) >= art_begin)
        infeasibility += tableau.at(r, rhs_col);
    if (infeasibility > 1e-6) {
      solution.status = LpStatus::Infeasible;
      solution.iterations = static_cast<int>(total_iterations);
      return solution;
    }
  }

  // --- Phase 2: optimize the real objective; artificials may not enter. ---
  std::vector<double> phase2_cost(total, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    phase2_cost[j] = problem.objective(static_cast<int>(j));
  rebuild_cost_row(phase2_cost);
  std::vector<char> allowed(total, 1);
  for (std::size_t j = art_begin; j < total; ++j) allowed[j] = 0;
  const LpStatus status = iterate(allowed);
  solution.iterations = static_cast<int>(total_iterations);
  if (status != LpStatus::Optimal) {
    solution.status = status;
    return solution;
  }

  solution.status = LpStatus::Optimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const auto b = static_cast<std::size_t>(basis[r]);
    if (b < n) solution.x[b] = tableau.at(r, rhs_col);
  }
  solution.objective = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    solution.objective +=
        problem.objective(static_cast<int>(j)) * solution.x[j];
  return solution;
}

}  // namespace surfnet::routing
