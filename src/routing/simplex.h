#pragma once

// Sparse revised primal simplex for the SurfNet routing protocol (paper
// Sec. V-A): the integer program of Eqs. (1)-(6) is solved as its LP
// relaxation and rounded, exactly as the paper's evaluation does.
//
// The solver maximizes c^T x subject to mixed <= / >= / = constraints and
// 0 <= x <= u. Unlike the original dense tableau (kept as a test oracle in
// tests/routing/dense_simplex.h), the constraint matrix stays compressed-sparse
// end to end: rows are emitted in CSR form by the formulation, transposed
// once to CSC inside the solver, and the basis is maintained as a
// product-form (eta-file) factorization with periodic refactorization.
// Box constraints are handled as variable bounds — they never become
// explicit rows — and a Bland's-rule fallback guards against cycling on
// the massively degenerate network-flow LPs the scheduler produces.
//
// Start bases. An LpSolver keeps the basis each solve ends with, and the
// next solve starts from it (a warm start): route() re-solves residual
// problems whose bounds and right-hand sides moved but whose shape did
// not. LpSolver::crash() replaces the kept basis with caller-chosen
// structural columns on caller-chosen rows, e.g. a network flow's spanning
// trees, so the first solve starts next to the optimum instead of at the
// slacks (a crash start). Without either, and whenever the start basis is
// singular, a solve starts from the all-slack/artificial basis (the cold
// start). After a warm or crash start, a dual simplex phase runs when the
// basis is dual feasible but primal infeasible — exactly what a warm start
// sees after only bounds and right-hand sides changed. It stops at primal
// feasibility, or hands over to the primal composite phase 1 when no
// column can repair the leaving row or the pivot is too small. The primal
// loop always runs last and certifies the result.
//
// Solver lifetime. An LpSolver copies the problem's columns once and keeps
// them, its basis, its eta file and its scratch across solves; each solve
// re-reads the bounds and right-hand sides. route() keeps one across its
// crash solve and warm re-solves; a one-shot solve is
// LpSolver(problem).solve().
//
// Set-up paid once. The copy also fixes what every refactorization pivots
// on: each column with duplicate rows summed and near-zero entries dropped
// (the raw columns themselves when no column has either, as in every
// routing formulation). A refactorization's triangular phase depends only
// on which columns are basic, not on their positions, so a refactorization
// that finds the basis unchanged since the last one — the install rebuild
// of a warm re-solve — keeps that rebuild's triangular etas and reruns only
// the Gauss-Jordan bump. Either way the eta file is the one a full rebuild
// gives, bit for bit; checks-on builds compare every reuse against one.
//
// Per-pivot scans. A solve keeps the columns that can enter the basis
// (nonbasic, upper bound positive) in one ascending list, rebuilt when the
// solve starts and updated at each basis change; pricing, the dual ratio
// row and the reduced-cost passes walk it instead of every column, and in
// the same ascending order, so every pick is the one a full scan makes.
// Each bump column clears, searches and writes its reached rows in one
// pass, and the primal phase test writes the basic costs as it looks for a
// violation. None of these changes a pivot or a bit of a result.

#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/sink.h"
#include "util/contracts.h"

namespace surfnet::routing {

enum class ConstraintType { LessEqual, GreaterEqual, Equal };

/// Builder convenience for tests and hand-written problems; the
/// formulation streams rows directly via begin_constraint / add_term.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable, coefficient)
  ConstraintType type = ConstraintType::LessEqual;
  double rhs = 0.0;
};

/// LP in compressed row form: maximize objective . x subject to the
/// emitted rows and 0 <= x <= upper_bound. Rows are appended term by term
/// with no per-row allocations and no dense materialization anywhere.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  int add_variable(double objective_coeff, double ub = kInfinity) {
    objective_.push_back(objective_coeff);
    upper_bound_.push_back(ub);
    return static_cast<int>(objective_.size()) - 1;
  }

  /// Open a new constraint row; subsequent add_term calls append to it.
  void begin_constraint(ConstraintType type, double rhs) {
    row_type_.push_back(type);
    rhs_.push_back(rhs);
    row_start_.push_back(static_cast<int>(cols_.size()));
  }
  /// Append a term to the open row. Throws std::invalid_argument on a
  /// variable that does not exist and std::logic_error before the first
  /// begin_constraint.
  void add_term(int var, double coeff) {
    if (var < 0 || var >= num_vars())
      throw std::invalid_argument("simplex: variable index out of range");
    if (row_start_.empty())
      throw std::logic_error("simplex: add_term before begin_constraint");
    cols_.push_back(var);
    coeffs_.push_back(coeff);
  }

  /// Capacity hints for code that knows the problem's size before it
  /// emits it: room for `vars` variables, or for `rows` rows holding
  /// `terms` terms in all, without regrowing. They change nothing else.
  void reserve_variables(int vars) {
    objective_.reserve(static_cast<std::size_t>(vars));
    upper_bound_.reserve(static_cast<std::size_t>(vars));
  }
  void reserve_rows(int rows, int terms) {
    row_type_.reserve(static_cast<std::size_t>(rows));
    rhs_.reserve(static_cast<std::size_t>(rows));
    row_start_.reserve(static_cast<std::size_t>(rows));
    cols_.reserve(static_cast<std::size_t>(terms));
    coeffs_.reserve(static_cast<std::size_t>(terms));
  }

  /// Convenience: emit a prebuilt row.
  void add_constraint(const Constraint& c) {
    begin_constraint(c.type, c.rhs);
    for (const auto& [var, coeff] : c.terms) add_term(var, coeff);
  }

  int num_vars() const { return static_cast<int>(objective_.size()); }
  int num_rows() const { return static_cast<int>(rhs_.size()); }
  int num_nonzeros() const { return static_cast<int>(cols_.size()); }

  double objective(int v) const {
    SURFNET_EXPECTS(v >= 0 && static_cast<std::size_t>(v) < objective_.size());
    return objective_[static_cast<std::size_t>(v)];
  }
  double upper_bound(int v) const {
    SURFNET_EXPECTS(v >= 0 &&
                    static_cast<std::size_t>(v) < upper_bound_.size());
    return upper_bound_[static_cast<std::size_t>(v)];
  }
  ConstraintType row_type(int r) const {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < row_type_.size());
    return row_type_[static_cast<std::size_t>(r)];
  }
  double rhs(int r) const {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < rhs_.size());
    return rhs_[static_cast<std::size_t>(r)];
  }
  std::span<const int> row_cols(int r) const {
    return {cols_.data() + row_begin(r), row_end(r) - row_begin(r)};
  }
  std::span<const double> row_coeffs(int r) const {
    return {coeffs_.data() + row_begin(r), row_end(r) - row_begin(r)};
  }

  /// Re-solve mutators: change bounds / right-hand sides while preserving
  /// the problem shape, so an LpSolver built on the problem keeps serving
  /// it.
  void set_upper_bound(int v, double ub) {
    SURFNET_EXPECTS(v >= 0 &&
                    static_cast<std::size_t>(v) < upper_bound_.size());
    upper_bound_[static_cast<std::size_t>(v)] = ub;
  }
  void set_rhs(int r, double rhs) {
    SURFNET_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < rhs_.size());
    rhs_[static_cast<std::size_t>(r)] = rhs;
  }

 private:
  std::size_t row_begin(int r) const {
    return static_cast<std::size_t>(row_start_[static_cast<std::size_t>(r)]);
  }
  std::size_t row_end(int r) const {
    const auto next = static_cast<std::size_t>(r) + 1;
    return next < row_start_.size()
               ? static_cast<std::size_t>(row_start_[next])
               : cols_.size();
  }

  std::vector<double> objective_;
  std::vector<double> upper_bound_;
  std::vector<ConstraintType> row_type_;
  std::vector<double> rhs_;
  std::vector<int> row_start_;  ///< first term of each row in cols_/coeffs_
  std::vector<int> cols_;
  std::vector<double> coeffs_;
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  std::vector<double> x;
  double objective = 0.0;
  int iterations = 0;        ///< simplex pivots + bound flips, all phases
  int dual_iterations = 0;   ///< pivots of the dual phase (in `iterations`)
  int refactorizations = 0;  ///< basis rebuilds (periodic + recovery + final)
  int factor_reuses = 0;  ///< rebuilds that kept the triangular etas (in
                          ///< `refactorizations`)
  bool warm_started = false;   ///< started from the basis a solve kept
  bool crash_started = false;  ///< started from the LpSolver::crash() basis
};

class RevisedSimplex;  // simplex.cpp

/// The sparse revised simplex over one problem, kept for a sequence of
/// solves in which only bounds and right-hand sides change (set_upper_bound,
/// set_rhs). Each solve resets all per-solve state, so its result depends
/// only on the problem as it stands and on the basis it starts from. The
/// problem must outlive the solver and keep its shape: a variable, row or
/// term added after construction makes the next solve throw
/// std::logic_error.
class LpSolver {
 public:
  explicit LpSolver(const LpProblem& problem);
  ~LpSolver();

  /// Replace the kept basis with a crash basis for the next solve: each
  /// (structural column, row) pair of `column_rows` puts that column in
  /// the basis on that row; every other row keeps its own slack or
  /// artificial, and every nonbasic column rests at its lower bound. Pairs
  /// whose column was already placed or whose row is already taken are
  /// skipped. An out-of-range column or row throws std::invalid_argument
  /// and leaves the solver as it was.
  void crash(std::span<const std::pair<int, int>> column_rows);

  /// Solve from the crash() basis when crash() ran since the last solve,
  /// else from the basis the last solve ended with (a warm start), else
  /// cold: before the first solve, after a solve that found an empty box
  /// (a NaN or negative bound, reported Infeasible), and always for a
  /// problem with no rows. A singular start basis falls back to the cold
  /// start. The start basis is restarted on the bounds as they are now:
  /// a nonbasic column stays at its upper bound only where that bound is
  /// finite and positive. The solve keeps the basis it ends with.
  ///
  /// A sink additionally times the solve into its metrics
  /// ("lp.solve_seconds", counters "lp.solves" / "lp.iterations" /
  /// "lp.dual_iterations" / "lp.refactorizations" / "lp.factor_reuses" /
  /// "lp.warm_starts" / "lp.crash_starts") and records one lp_solve trace
  /// event, whose warm_start key means a warm start only; a null sink
  /// changes nothing else.
  LpSolution solve(const obs::Sink& sink = {});

 private:
  std::unique_ptr<RevisedSimplex> simplex_;
};

}  // namespace surfnet::routing
