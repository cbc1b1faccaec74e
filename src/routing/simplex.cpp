#include "routing/simplex.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contracts.h"

namespace surfnet::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFeasTol = 1e-7;   ///< primal feasibility tolerance
constexpr double kOptTol = 1e-7;    ///< dual (reduced-cost) tolerance
constexpr double kPivotTol = 1e-8;  ///< smallest acceptable pivot element
constexpr double kDropTol = 1e-11;  ///< entries below this leave the eta file
constexpr double kRatioTol = 1e-9;  ///< column entries ignored by the ratio test
constexpr int kRefactorInterval = 64;  ///< pivots between refactorizations
constexpr int kBlandStreak = 256;   ///< degenerate pivots before Bland's rule

enum VarStatus : signed char { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

}  // namespace

/// Bounded-variable revised simplex over the equality form
///   maximize c^T x   s.t.   A x (+ slacks) = b,   0 <= x_j <= u_j.
/// Inequality rows fold into slack columns (so box constraints never become
/// rows); equality rows get an artificial column fixed at [0, 0]. The basis
/// inverse is kept as a product-form eta file, rebuilt from scratch every
/// kRefactorInterval pivots (Gauss-Jordan with partial pivoting over the
/// current basis columns). An installed basis that is dual feasible but
/// primal infeasible — a warm start whose bounds or right-hand sides
/// shifted — is repaired by a dual simplex phase first. Every other
/// infeasible starting basis (the cold slack basis with negative
/// right-hand sides, crash bases, dual-phase handovers) is repaired by a
/// composite phase 1 that minimizes the total bound violation of the basic
/// variables, so all starts share one primal loop, which also certifies
/// the result.
///
/// The column copy and every buffer live as long as the object; solve()
/// re-reads the bounds and right-hand sides and resets all per-solve
/// state. The basis (basis_, vstat_) is the one thing a solve leaves for
/// the next.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LpProblem& problem);
  void crash(std::span<const std::pair<int, int>> column_rows);
  LpSolution solve();

 private:
  /// The basis the next solve starts from.
  enum class Start { Cold, Kept, Crash };

  void aggregate_columns();  ///< fills agg_*; see factor_columns()

  /// Nonbasic and not fixed at zero: the column can enter the basis.
  bool movable(std::size_t j) const {
    return vstat_[j] != kBasic && upper_[j] > 0.0;
  }

  /// Rebuilds movable_ from the start basis and the bounds of this solve.
  void collect_movable() {
    movable_.clear();
    for (std::size_t j = 0; j < static_cast<std::size_t>(ncols_); ++j)
      if (movable(j)) movable_.push_back(static_cast<int>(j));
  }

  /// A basis change: `entering` leaves movable_, and `leaving` (already
  /// nonbasic) joins it when its upper bound is positive. A bound flip
  /// changes neither.
  void swap_movable(int entering, int leaving) {
    movable_.erase(
        std::lower_bound(movable_.begin(), movable_.end(), entering));
    if (upper_[static_cast<std::size_t>(leaving)] > 0.0)
      movable_.insert(
          std::lower_bound(movable_.begin(), movable_.end(), leaving),
          leaving);
  }

  /// d - a_j . y, subtracting term by term (pricing and reduced costs).
  double minus_column_dot(std::size_t j, double d,
                          const std::vector<double>& y) const {
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k)
      d -= col_val_[static_cast<std::size_t>(k)] *
           y[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(k)])];
    return d;
  }

  void load_column(int j, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    for (int k = col_start_[static_cast<std::size_t>(j)];
         k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
      v[static_cast<std::size_t>(col_row_[static_cast<std::size_t>(k)])] +=
          col_val_[static_cast<std::size_t>(k)];
  }

  /// refactorize()'s view of the columns: duplicate rows summed in CSC
  /// order, entries with |v| <= kDropTol dropped. That depends only on the
  /// column, so the constructor computes it once (agg_*), and only when
  /// some column has a duplicate row or an entry to drop; otherwise the
  /// raw columns already are it. Pricing, load_column and bump_column keep
  /// reading the raw columns: summing first would change their rounding.
  struct FactorColumns {
    const int* start;
    const int* row;
    const double* val;
  };
  FactorColumns factor_columns() const {
    if (agg_start_.empty())
      return {col_start_.data(), col_row_.data(), col_val_.data()};
    return {agg_start_.data(), agg_row_.data(), agg_val_.data()};
  }

  /// v <- B^{-1} v via the eta file, in application order.
  void ftran(std::vector<double>& v) const {
    const std::size_t etas = eta_pivot_row_.size();
    for (std::size_t e = 0; e < etas; ++e) {
      const auto r = static_cast<std::size_t>(eta_pivot_row_[e]);
      const double zr = v[r] / eta_pivot_val_[e];
      v[r] = zr;
      if (zr == 0.0) continue;
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        v[static_cast<std::size_t>(eta_row_[static_cast<std::size_t>(k)])] -=
            eta_val_[static_cast<std::size_t>(k)] * zr;
    }
  }

  /// v <- B^{-T} v via the transposed eta file, in reverse order.
  void btran(std::vector<double>& v) const {
    for (std::size_t e = eta_pivot_row_.size(); e-- > 0;) {
      const auto r = static_cast<std::size_t>(eta_pivot_row_[e]);
      double s = v[r];
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k)
        s -= eta_val_[static_cast<std::size_t>(k)] *
             v[static_cast<std::size_t>(eta_row_[static_cast<std::size_t>(k)])];
      v[r] = s / eta_pivot_val_[e];
    }
  }

  void append_eta(const std::vector<double>& w, int pivot_row) {
    eta_pivot_row_.push_back(pivot_row);
    eta_pivot_val_.push_back(w[static_cast<std::size_t>(pivot_row)]);
    for (int i = 0; i < m_; ++i) {
      if (i == pivot_row) continue;
      const double wv = w[static_cast<std::size_t>(i)];
      if (std::abs(wv) > kDropTol) {
        eta_row_.push_back(i);
        eta_val_.push_back(wv);
      }
    }
    eta_start_.push_back(static_cast<int>(eta_row_.size()));
  }

  /// One bump column of refactorize(): FTRAN column j through the eta file
  /// built so far, pivot on the first largest entry among the rows not yet
  /// taken, and append its eta. Returns the pivot row, or -1 when no entry
  /// exceeds the pivot threshold (the basis is numerically singular).
  ///
  /// This is a dense load_column + ftran + row scan + append_eta,
  /// operation for operation, over only the rows the column reaches. Rows
  /// it never reaches hold zero. An eta whose pivot row holds zero changes
  /// nothing but the sign of that zero, which no |v| test or drop test can
  /// see, so only the etas of reached rows run, in file order. Within one
  /// refactorization a row pivots at most one eta (fac_eta_of_row_), and
  /// applying eta e reaches new rows whose etas either come after e (they
  /// join the frontier, a bitset over eta indices scanned upward) or were
  /// passed while the row still held zero. Reached rows are a bitset as
  /// well, scanned in ascending row order like the dense loop, which fixes
  /// the first-largest pivot and the order of the new eta's entries.
  int bump_column(int j) {
    double* v = work_.data();  // all zero on entry, restored on exit
    std::uint64_t* rows = fac_row_bits_.data();
    std::uint64_t* etas = fac_eta_bits_.data();
    const std::size_t eta_words = fac_eta_bits_.size();
    // Reached rows lie in words [row_lo, row_end); queued etas from eta_lo.
    std::size_t row_lo = fac_row_bits_.size(), row_end = 0, eta_lo = eta_words;
    // Mark row r reached; queue its eta when the FTRAN has not passed it.
    const auto reach = [&](int r, int after_eta) {
      const auto w = static_cast<std::size_t>(r) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if (rows[w] & bit) return;
      rows[w] |= bit;
      row_lo = std::min(row_lo, w);
      row_end = std::max(row_end, w + 1);
      const int e = fac_eta_of_row_[static_cast<std::size_t>(r)];
      if (e > after_eta) {
        const auto ew = static_cast<std::size_t>(e) >> 6;
        etas[ew] |= std::uint64_t{1} << (e & 63);
        eta_lo = std::min(eta_lo, ew);
      }
    };

    for (int t = col_start_[static_cast<std::size_t>(j)];
         t < col_start_[static_cast<std::size_t>(j) + 1]; ++t) {
      const int r = col_row_[static_cast<std::size_t>(t)];
      v[r] += col_val_[static_cast<std::size_t>(t)];
      reach(r, -1);
    }
    for (std::size_t w = eta_lo; w < eta_words; ++w)
      while (etas[w] != 0) {
        const int e = static_cast<int>(w * 64) + std::countr_zero(etas[w]);
        etas[w] &= etas[w] - 1;
        const auto se = static_cast<std::size_t>(e);
        const auto r = static_cast<std::size_t>(eta_pivot_row_[se]);
        const double zr = v[r] / eta_pivot_val_[se];
        v[r] = zr;
        if (zr == 0.0) continue;
        for (int t = eta_start_[se]; t < eta_start_[se + 1]; ++t) {
          const int i = eta_row_[static_cast<std::size_t>(t)];
          v[i] -= eta_val_[static_cast<std::size_t>(t)] * zr;
          reach(i, e);
        }
      }

    // One pass over the reached rows, ascending: clear each, append every
    // entry above kDropTol, and track the first largest entry among the
    // rows not yet taken. The pivot's entry exceeds the pivot threshold, so
    // it was appended too; cutting it out leaves the off-pivot entries in
    // ascending row order, as append_eta writes them.
    const std::size_t first = eta_row_.size();
    int pr = -1;
    double best = 1e-10;
    double pivot = 0.0;
    std::size_t pivot_slot = first;
    for (std::size_t w = row_lo; w < row_end; ++w) {
      for (std::uint64_t bits = rows[w]; bits != 0; bits &= bits - 1) {
        const int i = static_cast<int>(w * 64) + std::countr_zero(bits);
        const double vi = v[i];
        v[i] = 0.0;
        if (std::abs(vi) > kDropTol) {
          if (!fac_taken_[static_cast<std::size_t>(i)] &&
              std::abs(vi) > best) {
            best = std::abs(vi);
            pr = i;
            pivot = vi;
            pivot_slot = eta_row_.size();
          }
          eta_row_.push_back(i);
          eta_val_.push_back(vi);
        }
      }
      rows[w] = 0;
    }
    if (pr < 0) {
      eta_row_.resize(first);
      eta_val_.resize(first);
      return -1;
    }
    eta_row_.erase(eta_row_.begin() + static_cast<std::ptrdiff_t>(pivot_slot));
    eta_val_.erase(eta_val_.begin() + static_cast<std::ptrdiff_t>(pivot_slot));
    fac_eta_of_row_[static_cast<std::size_t>(pr)] =
        static_cast<int>(eta_pivot_row_.size());
    eta_pivot_row_.push_back(pr);
    eta_pivot_val_.push_back(pivot);
    eta_start_.push_back(static_cast<int>(eta_row_.size()));
    return pr;
  }

  /// Rebuild the eta file for the current basis. A triangular ordering
  /// phase goes first: repeatedly take a row touched by exactly one
  /// remaining basis column and pivot that column there. Such a column
  /// provably has no entries in earlier pivot rows, so its eta is the raw
  /// column — zero fill, no FTRAN. The columns it leaves, the "bump", are
  /// pivoted by Gauss-Jordan product form with partial pivoting, in basis
  /// position order (bump_column). The bump is not small: on the Fig. 6(a)
  /// LPs about a third of a basis's columns land there. But each bump
  /// column reaches only a few etas and rows, which is why bump_column
  /// works on the rows it reaches instead of all of them. Basis columns
  /// may get reassigned to different rows; false = numerically singular.
  /// Allocation-free once the buffers have grown to the problem's size.
  ///
  /// The triangular phase reads only which columns are basic, never their
  /// positions: its singleton counts run over the set, a row whose count
  /// is one names its column whatever position holds it, and each eta is
  /// that column's factor entries. So when no pivot has touched the basis
  /// since the last successful rebuild (basis_unchanged_), its triangular
  /// etas still lead the eta file and are exactly what the phase would
  /// produce again; the rebuild keeps them, frees the bump's rows and
  /// reruns only the bump, in the current position order. That is the
  /// install rebuild of every warm re-solve.
  bool refactorize() {
    ++refactor_count_;
    const bool reuse = basis_unchanged_;
    basis_unchanged_ = false;  // until the bump succeeds
    if (reuse) {
      ++factor_reuse_count_;
      keep_triangular_etas();
    } else {
      triangular_phase();
    }
    if (!bump_phase()) return false;
    basis_unchanged_ = true;
    if (reuse) check_factor_reuse();
    return true;
  }

  /// Clears the eta file and pivots the triangular part of the basis. Marks
  /// the columns it leaves in fac_in_bump_ and records the length of its
  /// eta prefix.
  void triangular_phase() {
    eta_pivot_row_.clear();
    eta_pivot_val_.clear();
    eta_row_.clear();
    eta_val_.clear();
    eta_start_.assign(1, 0);
    const auto sm = static_cast<std::size_t>(m_);
    const FactorColumns fc = factor_columns();
    // Basis position k's factor entries are [first, last).
    const auto entries = [&](int k) {
      const int j = basis_[static_cast<std::size_t>(k)];
      return std::pair<int, int>(fc.start[j], fc.start[j + 1]);
    };

    // Row -> basis-position index for singleton detection.
    fac_rowpos_start_.assign(sm + 1, 0);
    for (int k = 0; k < m_; ++k) {
      const auto [first, last] = entries(k);
      for (int t = first; t < last; ++t)
        ++fac_rowpos_start_[static_cast<std::size_t>(fc.row[t]) + 1];
    }
    for (int r = 0; r < m_; ++r)
      fac_rowpos_start_[static_cast<std::size_t>(r) + 1] +=
          fac_rowpos_start_[static_cast<std::size_t>(r)];
    fac_rowpos_col_.resize(
        static_cast<std::size_t>(fac_rowpos_start_[sm]));
    fac_fill_.assign(fac_rowpos_start_.begin(), fac_rowpos_start_.end() - 1);
    for (int k = 0; k < m_; ++k) {
      const auto [first, last] = entries(k);
      for (int t = first; t < last; ++t)
        fac_rowpos_col_[static_cast<std::size_t>(
            fac_fill_[static_cast<std::size_t>(fc.row[t])]++)] = k;
    }

    fac_row_live_.assign(sm, 0);
    for (int r = 0; r < m_; ++r)
      fac_row_live_[static_cast<std::size_t>(r)] =
          fac_rowpos_start_[static_cast<std::size_t>(r) + 1] -
          fac_rowpos_start_[static_cast<std::size_t>(r)];
    fac_col_alive_.assign(sm, 1);
    fac_taken_.assign(sm, 0);
    fac_new_basis_.assign(sm, -1);
    fac_eta_of_row_.assign(sm, -1);

    fac_queue_.clear();
    for (int r = 0; r < m_; ++r)
      if (fac_row_live_[static_cast<std::size_t>(r)] == 1)
        fac_queue_.push_back(r);
    while (!fac_queue_.empty()) {
      const int r = fac_queue_.back();
      fac_queue_.pop_back();
      if (fac_taken_[static_cast<std::size_t>(r)] ||
          fac_row_live_[static_cast<std::size_t>(r)] != 1)
        continue;
      int k = -1;
      for (int t = fac_rowpos_start_[static_cast<std::size_t>(r)];
           t < fac_rowpos_start_[static_cast<std::size_t>(r) + 1]; ++t)
        if (fac_col_alive_[static_cast<std::size_t>(
                fac_rowpos_col_[static_cast<std::size_t>(t)])]) {
          k = fac_rowpos_col_[static_cast<std::size_t>(t)];
          break;
        }
      if (k < 0) continue;
      const auto [first, last] = entries(k);
      double pivot = 0.0;
      for (int t = first; t < last; ++t)
        if (fc.row[t] == r) pivot = fc.val[t];
      if (std::abs(pivot) <= 1e-10) continue;  // leave it for the bump

      fac_eta_of_row_[static_cast<std::size_t>(r)] =
          static_cast<int>(eta_pivot_row_.size());
      eta_pivot_row_.push_back(r);
      eta_pivot_val_.push_back(pivot);
      for (int t = first; t < last; ++t) {
        const int r2 = fc.row[t];
        if (r2 == r) continue;
        eta_row_.push_back(r2);
        eta_val_.push_back(fc.val[t]);
        if (!fac_taken_[static_cast<std::size_t>(r2)] &&
            --fac_row_live_[static_cast<std::size_t>(r2)] == 1)
          fac_queue_.push_back(r2);
      }
      eta_start_.push_back(static_cast<int>(eta_row_.size()));
      fac_col_alive_[static_cast<std::size_t>(k)] = 0;
      fac_taken_[static_cast<std::size_t>(r)] = 1;
      fac_new_basis_[static_cast<std::size_t>(r)] =
          basis_[static_cast<std::size_t>(k)];
    }

    for (const int j : fac_bump_cols_)
      fac_in_bump_[static_cast<std::size_t>(j)] = 0;
    fac_bump_cols_.clear();
    for (int k = 0; k < m_; ++k) {
      if (!fac_col_alive_[static_cast<std::size_t>(k)]) continue;
      const int j = basis_[static_cast<std::size_t>(k)];
      fac_in_bump_[static_cast<std::size_t>(j)] = 1;
      fac_bump_cols_.push_back(j);
    }
    fac_triangular_etas_ = eta_pivot_row_.size();
  }

  /// The triangular phase's state, from the last rebuild: the basis is
  /// still the order that rebuild gave it (row r holds the column pivoted
  /// there), and its eta file is the triangular prefix followed by one bump
  /// eta per remaining row. Drops the bump etas and frees their rows.
  void keep_triangular_etas() {
    const std::size_t tri = fac_triangular_etas_;
    for (std::size_t e = tri; e < eta_pivot_row_.size(); ++e) {
      const auto r = static_cast<std::size_t>(eta_pivot_row_[e]);
      fac_taken_[r] = 0;
      fac_eta_of_row_[r] = -1;
    }
    eta_pivot_row_.resize(tri);
    eta_pivot_val_.resize(tri);
    eta_start_.resize(tri + 1);
    eta_row_.resize(static_cast<std::size_t>(eta_start_.back()));
    eta_val_.resize(eta_row_.size());
    fac_new_basis_.assign(basis_.begin(), basis_.end());
  }

  /// Gauss-Jordan over the bump's columns in basis position order, then
  /// the basis takes the pivot-row order.
  bool bump_phase() {
    std::fill(work_.begin(), work_.end(), 0.0);
    for (int k = 0; k < m_; ++k) {
      const int j = basis_[static_cast<std::size_t>(k)];
      if (!fac_in_bump_[static_cast<std::size_t>(j)]) continue;
      const int pr = bump_column(j);
      if (pr < 0) return false;
      fac_taken_[static_cast<std::size_t>(pr)] = 1;
      fac_new_basis_[static_cast<std::size_t>(pr)] = j;
    }
    basis_.swap(fac_new_basis_);
    pivots_since_refactor_ = 0;
    return true;
  }

  /// x_B = B^{-1} (b - sum of nonbasic-at-upper columns at their bound).
  void compute_basic_values() {
    std::copy(b_.begin(), b_.end(), work_.begin());
    for (int j = 0; j < ncols_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] != kAtUpper) continue;
      const double u = upper_[static_cast<std::size_t>(j)];
      if (u == 0.0) continue;
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
        work_[static_cast<std::size_t>(
            col_row_[static_cast<std::size_t>(k)])] -=
            col_val_[static_cast<std::size_t>(k)] * u;
    }
    ftran(work_);
    std::copy(work_.begin(), work_.end(), x_basic_.begin());
  }

  void cold_basis() {
    basis_unchanged_ = false;
    vstat_.assign(static_cast<std::size_t>(ncols_), kAtLower);
    basis_.resize(static_cast<std::size_t>(m_));
    for (int r = 0; r < m_; ++r) {
      basis_[static_cast<std::size_t>(r)] =
          row_aux_col_[static_cast<std::size_t>(r)];
      vstat_[static_cast<std::size_t>(
          row_aux_col_[static_cast<std::size_t>(r)])] = kBasic;
    }
  }

  /// Phase-2 reduced costs d_j = c_j - a_j^T B^{-T} c_B of every nonbasic
  /// column that can move (basic and fixed columns are left untouched).
  void compute_reduced_costs() {
    for (int r = 0; r < m_; ++r)
      y_[static_cast<std::size_t>(r)] =
          cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
    btran(y_);
    for (const int j : movable_) {
      const auto sj = static_cast<std::size_t>(j);
      reduced_[sj] = minus_column_dot(sj, cost_[sj], y_);
    }
  }

  /// Row of the largest bound violation among the basic variables, or -1
  /// when the basis is primal feasible; `to_upper` tells which bound the
  /// row's variable must return to.
  int worst_violation(bool& to_upper) const {
    int row = -1;
    double worst = kFeasTol;
    for (int r = 0; r < m_; ++r) {
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      if (-v > worst) {
        worst = -v;
        row = r;
        to_upper = false;
      } else if (v - u > worst) {
        worst = v - u;
        row = r;
        to_upper = true;
      }
    }
    return row;
  }

  /// Dual simplex phase over the installed basis. Runs only when the basis
  /// is primal infeasible and every movable nonbasic column's reduced cost
  /// has the optimal sign, which holds for a warm start after bound and
  /// right-hand-side changes. Each pivot takes the row of the largest bound
  /// violation out, brings in the eligible column with the smallest
  /// |d_j / alpha_rj| (ties to the larger |alpha_rj|), and puts the leaving
  /// variable exactly on its violated bound. Stops at primal feasibility;
  /// hands over to the primal loop when no column can repair the row, the
  /// pivot is below kPivotTol, or kBlandStreak dual-degenerate pivots pass
  /// in a row. Returns false only when a refactorization fails.
  bool dual_phase(long& iterations, long max_iterations, int& dual_pivots) {
    bool to_upper = false;
    if (worst_violation(to_upper) < 0) return true;
    compute_reduced_costs();
    for (const int j : movable_) {
      const auto sj = static_cast<std::size_t>(j);
      if (vstat_[sj] == kAtLower ? reduced_[sj] > kOptTol
                                 : reduced_[sj] < -kOptTol)
        return true;  // not dual feasible: the primal loop takes it all
    }

    int degenerate_streak = 0;
    while (iterations < max_iterations) {
      const int r = worst_violation(to_upper);
      if (r < 0) return true;
      const auto sr = static_cast<std::size_t>(r);

      // rho = B^{-T} e_r; alpha_rj = rho . a_j is row r of B^{-1} A.
      std::fill(y_.begin(), y_.end(), 0.0);
      y_[sr] = 1.0;
      btran(y_);

      // Moving column j off its bound by t shifts x_B[r] by -alpha_rj * t
      // (at lower, t > 0) or +alpha_rj * |t| (at upper); it is eligible
      // when that moves x_B[r] back toward the violated bound.
      int entering = -1;
      double best_ratio = kInf;
      double best_alpha = 0.0;
      for (const int j : movable_) {
        const auto sj = static_cast<std::size_t>(j);
        const double alpha = -minus_column_dot(sj, 0.0, y_);
        row_alpha_[sj] = alpha;
        const bool at_lower = vstat_[sj] == kAtLower;
        const double push = at_lower ? -alpha : alpha;
        if (to_upper ? push > -kPivotTol : push < kPivotTol) continue;
        const double ratio =
            std::max(0.0, at_lower ? -reduced_[sj] : reduced_[sj]) /
            std::abs(alpha);
        if (ratio < best_ratio - kRatioTol ||
            (ratio < best_ratio + kRatioTol &&
             std::abs(alpha) > std::abs(best_alpha))) {
          best_ratio = std::min(best_ratio, ratio);
          best_alpha = alpha;
          entering = j;
        }
      }
      if (entering < 0) return true;  // hand over: phase 1 decides

      const auto se = static_cast<std::size_t>(entering);
      load_column(entering, work_);
      ftran(work_);
      const double pivot = work_[sr];
      if (std::abs(pivot) < kPivotTol) return true;  // hand over

      const int leaving = basis_[sr];
      const double target =
          to_upper ? upper_[static_cast<std::size_t>(leaving)] : 0.0;
      const double step = (x_basic_[sr] - target) / pivot;
      for (int i = 0; i < m_; ++i)
        x_basic_[static_cast<std::size_t>(i)] -=
            work_[static_cast<std::size_t>(i)] * step;
      const double entering_value =
          (vstat_[se] == kAtUpper ? upper_[se] : 0.0) + step;

      // Dual step: d_j -= theta * alpha_rj keeps every movable column's
      // reduced cost on its optimal side; the leaving column gets -theta.
      const double theta = reduced_[se] / best_alpha;
      for (const int j : movable_)
        reduced_[static_cast<std::size_t>(j)] -=
            theta * row_alpha_[static_cast<std::size_t>(j)];
      reduced_[static_cast<std::size_t>(leaving)] = -theta;

      // A column fixed at zero leaves at lower: both bounds coincide.
      vstat_[static_cast<std::size_t>(leaving)] =
          to_upper && target > 0.0 ? kAtUpper : kAtLower;
      basis_[sr] = entering;
      basis_unchanged_ = false;
      vstat_[se] = kBasic;
      swap_movable(entering, leaving);
      x_basic_[sr] = entering_value;
      append_eta(work_, r);
      ++iterations;
      ++dual_pivots;
      if (++pivots_since_refactor_ >= kRefactorInterval) {
        if (!refactorize()) return false;
        compute_basic_values();
        compute_reduced_costs();
      }

      if (std::abs(theta) > kRatioTol) {
        degenerate_streak = 0;
      } else if (++degenerate_streak >= kBlandStreak) {
        return true;  // hand over rather than risk a dual cycle
      }
    }
    return true;
  }

  /// Debug validator (SURFNET_CHECKS): structural sanity of the basis and
  /// the variable-status flags: one distinct in-range column per row, an
  /// at-upper column rests on a finite bound, a positive one when it is
  /// structural, and movable_ lists exactly the movable() columns, in
  /// ascending order. Compiled to nothing when checks are off.
  void check_basis_invariants() const {
#if SURFNET_CHECKS
    std::vector<char> seen(static_cast<std::size_t>(ncols_), 0);
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[static_cast<std::size_t>(r)];
      SURFNET_ASSERT(j >= 0 && j < ncols_, "row %d holds column %d of %d", r,
                     j, ncols_);
      SURFNET_ASSERT(!seen[static_cast<std::size_t>(j)],
                     "column %d basic in two rows", j);
      seen[static_cast<std::size_t>(j)] = 1;
      SURFNET_ASSERT(vstat_[static_cast<std::size_t>(j)] == kBasic,
                     "basic column %d has status %d", j,
                     vstat_[static_cast<std::size_t>(j)]);
    }
    int basic_count = 0;
    for (int j = 0; j < ncols_; ++j) {
      const auto status = vstat_[static_cast<std::size_t>(j)];
      if (status == kBasic) ++basic_count;
      if (status != kAtUpper) continue;
      const double u = upper_[static_cast<std::size_t>(j)];
      SURFNET_ASSERT(std::isfinite(u) && (j >= nstruct_ || u > 0.0),
                     "column %d at-upper with bound %g", j, u);
    }
    SURFNET_ASSERT(basic_count == m_, "%d basic flags for %d rows",
                   basic_count, m_);
    std::size_t listed = 0;
    for (int j = 0; j < ncols_; ++j) {
      if (!movable(static_cast<std::size_t>(j))) continue;
      SURFNET_ASSERT(listed < movable_.size() && movable_[listed] == j,
                     "movable column %d is not next in the movable set", j);
      ++listed;
    }
    SURFNET_ASSERT(listed == movable_.size(),
                   "movable set holds %zu columns, %zu are movable",
                   movable_.size(), listed);
#endif
  }

  /// Debug validator (SURFNET_CHECKS): a refactorization that kept the
  /// triangular etas must equal a rebuild from scratch. Keeps its eta file
  /// and basis order aside, rebuilds the basis it started from (the order
  /// bump_phase swapped into fac_new_basis_) with the full triangular
  /// phase, and asserts both bit for bit. Compiled to nothing when checks
  /// are off.
  void check_factor_reuse() {
#if SURFNET_CHECKS
    const std::vector<int> order = basis_, pivot_row = eta_pivot_row_,
                           start = eta_start_, row = eta_row_;
    const std::vector<double> pivot_val = eta_pivot_val_, val = eta_val_;
    basis_ = fac_new_basis_;
    triangular_phase();
    const bool rebuilt = bump_phase();
    const auto same_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                        [](double x, double y) {
                          return std::bit_cast<std::uint64_t>(x) ==
                                 std::bit_cast<std::uint64_t>(y);
                        });
    };
    SURFNET_ASSERT(rebuilt && basis_ == order &&
                       eta_pivot_row_ == pivot_row && eta_start_ == start &&
                       eta_row_ == row &&
                       same_bits(eta_pivot_val_, pivot_val) &&
                       same_bits(eta_val_, val),
                   "refactorization %d kept triangular etas that a rebuild "
                   "does not reproduce",
                   refactor_count_);
#endif
  }

  /// Debug validator (SURFNET_CHECKS): eta-file refactorization residual.
  /// With x assembled from the basic values and the nonbasic-at-upper
  /// bounds, A x must reproduce b — a drifting eta file or a corrupt basis
  /// shows up here as a large residual.
  void check_primal_residual() {
#if SURFNET_CHECKS
    check_basis_invariants();
    std::vector<double> residual(b_.begin(), b_.end());
    double scale = 1.0;
    for (const double rhs : b_) scale = std::max(scale, std::abs(rhs));
    const auto apply_column = [&](int j, double x) {
      if (x == 0.0) return;
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k)
        residual[static_cast<std::size_t>(
            col_row_[static_cast<std::size_t>(k)])] -=
            col_val_[static_cast<std::size_t>(k)] * x;
    };
    for (int j = 0; j < ncols_; ++j)
      if (vstat_[static_cast<std::size_t>(j)] == kAtUpper)
        apply_column(j, upper_[static_cast<std::size_t>(j)]);
    for (int r = 0; r < m_; ++r)
      apply_column(basis_[static_cast<std::size_t>(r)],
                   x_basic_[static_cast<std::size_t>(r)]);
    for (int r = 0; r < m_; ++r)
      SURFNET_ASSERT(std::abs(residual[static_cast<std::size_t>(r)]) <=
                         1e-5 * scale,
                     "row %d residual %g (scale %g)", r,
                     residual[static_cast<std::size_t>(r)], scale);
#endif
  }

  /// Debug validator (SURFNET_CHECKS): on phase-1 exit every basic value
  /// must sit inside its bounds — Optimal with a bound violation means the
  /// phase transition logic broke.
  void check_exit_feasibility() const {
#if SURFNET_CHECKS
    for (int r = 0; r < m_; ++r) {
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      SURFNET_ASSERT(v >= -1e-5 && v <= u + 1e-5,
                     "basic value %g outside [0, %g] in row %d", v, u, r);
    }
#endif
  }

  const LpProblem* problem_;
  int m_ = 0;       ///< rows
  int nstruct_ = 0; ///< structural columns
  int ncols_ = 0;   ///< structural + slack + artificial

  // CSC over all internal columns.
  std::vector<int> col_start_;
  std::vector<int> col_row_;
  std::vector<double> col_val_;
  std::vector<double> cost_;
  std::vector<double> upper_;
  std::vector<double> b_;
  std::vector<int> row_aux_col_;  ///< cold-start basic column per row

  // The basis: kept from the last solve, or set by crash(), when start_
  // says so.
  std::vector<int> basis_;
  std::vector<signed char> vstat_;
  Start start_ = Start::Cold;
  std::vector<double> x_basic_;

  // Eta file: eta e pivots on row eta_pivot_row_[e] with value
  // eta_pivot_val_[e]; off-pivot entries live in [eta_start_[e],
  // eta_start_[e+1]) of eta_row_/eta_val_.
  std::vector<int> eta_pivot_row_;
  std::vector<double> eta_pivot_val_;
  std::vector<int> eta_start_;
  std::vector<int> eta_row_;
  std::vector<double> eta_val_;
  int pivots_since_refactor_ = 0;
  int refactor_count_ = 0;  ///< total basis rebuilds this solve
  int factor_reuse_count_ = 0;  ///< of those, how many kept triangular etas
  /// No pivot, crash or cold reset has changed the basis since the last
  /// successful refactorize(), so its triangular etas lead the eta file.
  bool basis_unchanged_ = false;

  std::vector<double> work_;  ///< dense row-sized scratch (FTRAN target)
  std::vector<double> y_;     ///< dense row-sized scratch (BTRAN target)

  // Dual phase, per column: phase-2 reduced cost and the leaving row's
  // entry of B^{-1} A (both only meaningful for movable nonbasic columns).
  std::vector<double> reduced_;
  std::vector<double> row_alpha_;

  // The factor columns (factor_columns()); empty when the raw columns
  // serve.
  std::vector<int> agg_start_, agg_row_;
  std::vector<double> agg_val_;

  // Refactorization scratch (rebuilt each refactorize; kept as members so
  // the buffers only grow).
  std::vector<int> fac_rowpos_start_, fac_rowpos_col_, fac_row_live_,
      fac_queue_, fac_fill_, fac_new_basis_;
  std::vector<char> fac_col_alive_, fac_taken_;
  std::vector<int> fac_eta_of_row_;  ///< eta pivoting on each row, or -1
  // What the last triangular phase left: its eta count, and the columns
  // of the bump as a per-column flag and a list.
  std::size_t fac_triangular_etas_ = 0;
  std::vector<char> fac_in_bump_;
  std::vector<int> fac_bump_cols_;
  // bump_column's reached rows and eta frontier; all zero between calls.
  std::vector<std::uint64_t> fac_row_bits_, fac_eta_bits_;

  /// The movable() columns in ascending order: rebuilt once per solve,
  /// then updated at each basis change (swap_movable). Pricing, the dual
  /// ratio row and every reduced-cost pass walk it instead of all columns.
  std::vector<int> movable_;

  // Primal loop: columns barred from the current pricing round.
  std::vector<char> banned_;
  std::vector<int> banned_list_;
};

RevisedSimplex::RevisedSimplex(const LpProblem& problem) : problem_(&problem) {
  m_ = problem.num_rows();
  nstruct_ = problem.num_vars();
  ncols_ = nstruct_ + m_;  // one slack or artificial per row
  // The slacks follow the structural columns in row order, the
  // artificials follow the slacks.
  int num_slack = 0;
  for (int r = 0; r < m_; ++r)
    if (problem.row_type(r) != ConstraintType::Equal) ++num_slack;
  int slack_cursor = nstruct_;
  int art_cursor = nstruct_ + num_slack;
  row_aux_col_.resize(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r)
    row_aux_col_[static_cast<std::size_t>(r)] =
        problem.row_type(r) == ConstraintType::Equal ? art_cursor++
                                                     : slack_cursor++;

  // Transpose the problem's CSR rows into CSC structural columns.
  const int nnz = problem.num_nonzeros();
  col_start_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  for (int r = 0; r < m_; ++r)
    for (const int c : problem.row_cols(r))
      ++col_start_[static_cast<std::size_t>(c) + 1];
  // Prefix-sum structural counts, then one slot per slack/artificial col.
  for (int j = 0; j < nstruct_; ++j)
    col_start_[static_cast<std::size_t>(j) + 1] +=
        col_start_[static_cast<std::size_t>(j)];
  for (int j = nstruct_; j < ncols_; ++j)
    col_start_[static_cast<std::size_t>(j) + 1] =
        col_start_[static_cast<std::size_t>(j)] + 1;

  col_row_.resize(static_cast<std::size_t>(nnz) + static_cast<std::size_t>(m_));
  col_val_.resize(col_row_.size());
  std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
  // Whether some column has a repeated row or an entry to drop (see
  // factor_columns()), from the row each column last took.
  std::vector<int> last_row(static_cast<std::size_t>(nstruct_), -1);
  bool aggregate = false;
  for (int r = 0; r < m_; ++r) {
    const auto cols = problem.row_cols(r);
    const auto coeffs = problem.row_coeffs(r);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const auto c = static_cast<std::size_t>(cols[t]);
      const auto slot = static_cast<std::size_t>(fill[c]++);
      col_row_[slot] = r;
      col_val_[slot] = coeffs[t];
      const bool repeated = last_row[c] == r;
      const bool droppable = !(std::abs(coeffs[t]) > kDropTol);
      aggregate = aggregate | repeated | droppable;
      last_row[c] = r;
    }
  }

  // Structural upper bounds and b_ are read by every solve.
  cost_.assign(static_cast<std::size_t>(ncols_), 0.0);
  upper_.assign(static_cast<std::size_t>(ncols_), kInf);
  for (int j = 0; j < nstruct_; ++j)
    cost_[static_cast<std::size_t>(j)] = problem.objective(j);

  b_.resize(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    const int aux = row_aux_col_[static_cast<std::size_t>(r)];
    double coeff = 1.0;
    switch (problem.row_type(r)) {
      case ConstraintType::LessEqual:
        break;
      case ConstraintType::GreaterEqual:
        coeff = -1.0;
        break;
      case ConstraintType::Equal:
      default:
        upper_[static_cast<std::size_t>(aux)] = 0.0;  // fixed at zero
        break;
    }
    const auto slot =
        static_cast<std::size_t>(col_start_[static_cast<std::size_t>(aux)]);
    col_row_[slot] = r;
    col_val_[slot] = coeff;
  }

  if (aggregate) aggregate_columns();

  x_basic_.resize(static_cast<std::size_t>(m_));
  work_.resize(static_cast<std::size_t>(m_));
  y_.resize(static_cast<std::size_t>(m_));
  movable_.reserve(static_cast<std::size_t>(ncols_));
  reduced_.resize(static_cast<std::size_t>(ncols_));
  row_alpha_.resize(static_cast<std::size_t>(ncols_));
  eta_start_.assign(1, 0);
  const std::size_t words = (static_cast<std::size_t>(m_) + 63) / 64;
  fac_row_bits_.assign(words, 0);
  fac_eta_bits_.assign(words, 0);  // at most one eta per row
  banned_.assign(static_cast<std::size_t>(ncols_), 0);
  fac_in_bump_.assign(static_cast<std::size_t>(ncols_), 0);
}

void RevisedSimplex::aggregate_columns() {
  const auto sm = static_cast<std::size_t>(m_);
  agg_start_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  agg_row_.clear();
  agg_val_.clear();
  std::vector<int> stamp(sm, -1);
  std::vector<std::size_t> slot(sm);
  for (int j = 0; j < ncols_; ++j) {
    const auto base = agg_row_.size();
    for (int t = col_start_[static_cast<std::size_t>(j)];
         t < col_start_[static_cast<std::size_t>(j) + 1]; ++t) {
      const auto r =
          static_cast<std::size_t>(col_row_[static_cast<std::size_t>(t)]);
      const double v = col_val_[static_cast<std::size_t>(t)];
      if (stamp[r] == j) {
        agg_val_[slot[r]] += v;
      } else {
        stamp[r] = j;
        slot[r] = agg_row_.size();
        agg_row_.push_back(static_cast<int>(r));
        agg_val_.push_back(v);
      }
    }
    // Drop cancelled entries in place.
    std::size_t w = base;
    for (std::size_t t = base; t < agg_row_.size(); ++t)
      if (std::abs(agg_val_[t]) > kDropTol) {
        agg_row_[w] = agg_row_[t];
        agg_val_[w] = agg_val_[t];
        ++w;
      }
    agg_row_.resize(w);
    agg_val_.resize(w);
    agg_start_[static_cast<std::size_t>(j) + 1] = static_cast<int>(w);
  }
}

void RevisedSimplex::crash(std::span<const std::pair<int, int>> column_rows) {
  for (const auto& [col, row] : column_rows)
    if (col < 0 || col >= nstruct_ || row < 0 || row >= m_)
      throw std::invalid_argument("simplex: crash column or row out of range");
  cold_basis();  // clears basis_unchanged_
  for (const auto& [col, row] : column_rows) {
    const auto sr = static_cast<std::size_t>(row);
    // Skip a column already placed and a row already taken.
    if (vstat_[static_cast<std::size_t>(col)] == kBasic ||
        basis_[sr] != row_aux_col_[sr])
      continue;
    vstat_[static_cast<std::size_t>(basis_[sr])] = kAtLower;
    basis_[sr] = col;
    vstat_[static_cast<std::size_t>(col)] = kBasic;
  }
  start_ = Start::Crash;
}

LpSolution RevisedSimplex::solve() {
  const LpProblem& problem = *problem_;
  if (problem.num_rows() != m_ || problem.num_vars() != nstruct_ ||
      static_cast<std::size_t>(problem.num_nonzeros() + m_) != col_row_.size())
    throw std::logic_error("simplex: problem changed shape after the solver "
                           "was built");
  for (int j = 0; j < nstruct_; ++j)
    upper_[static_cast<std::size_t>(j)] = problem.upper_bound(j);
  for (int r = 0; r < m_; ++r) b_[static_cast<std::size_t>(r)] = problem.rhs(r);
  refactor_count_ = 0;
  factor_reuse_count_ = 0;
  for (const int j : banned_list_) banned_[static_cast<std::size_t>(j)] = 0;
  banned_list_.clear();

  LpSolution solution;
  for (int j = 0; j < nstruct_; ++j) {
    const double u = upper_[static_cast<std::size_t>(j)];
    if (std::isnan(u) || u < 0.0) {  // empty box — match the dense reference
      solution.status = LpStatus::Infeasible;
      start_ = Start::Cold;  // and keep no basis
      return solution;
    }
  }

  // Restart the kept or crash basis on the bounds as they are now: a
  // nonbasic column stays at its upper bound only where that bound is
  // finite and positive. With no rows, or when the basis is singular, the
  // solve starts cold.
  bool installed = start_ != Start::Cold && m_ > 0;
  if (installed) {
    for (std::size_t j = 0; j < static_cast<std::size_t>(ncols_); ++j)
      if (vstat_[j] == kAtUpper &&
          !(std::isfinite(upper_[j]) && upper_[j] > 0.0))
        vstat_[j] = kAtLower;
    installed = refactorize();
  }
  if (!installed) {
    cold_basis();
    refactorize();  // singleton basis columns: cannot fail
  }
  collect_movable();
  solution.warm_started = installed && start_ == Start::Kept;
  solution.crash_started = installed && start_ == Start::Crash;
  start_ = Start::Kept;
  compute_basic_values();
  check_primal_residual();

  const long max_iterations = 4096 + 32L * (m_ + nstruct_);
  long iterations = 0;
  const bool dual_ok =
      !installed ||
      dual_phase(iterations, max_iterations, solution.dual_iterations);
  int degenerate_streak = 0;
  bool bland = false;

  for (;;) {
    if (!dual_ok || iterations >= max_iterations) {
      solution.status = LpStatus::IterationLimit;
      break;
    }

    // Phase detection: any basic variable outside its bounds puts the
    // iteration in phase 1, whose costs point each violator back inside.
    // One pass writes the phase-2 basic costs and looks for a violator;
    // only a phase-1 iteration rewrites them.
    bool phase1 = false;
    for (int r = 0; r < m_; ++r) {
      const auto sr = static_cast<std::size_t>(r);
      const auto j = static_cast<std::size_t>(basis_[sr]);
      const double v = x_basic_[sr];
      y_[sr] = cost_[j];
      phase1 = phase1 || v < -kFeasTol || v > upper_[j] + kFeasTol;
    }
    if (phase1)
      for (int r = 0; r < m_; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        const double v = x_basic_[sr];
        const double u = upper_[static_cast<std::size_t>(basis_[sr])];
        y_[sr] = v < -kFeasTol ? 1.0 : v > u + kFeasTol ? -1.0 : 0.0;
      }
    btran(y_);

    // Pricing: Dantzig (largest reduced cost) normally, Bland (first
    // eligible index) while a degenerate streak threatens to cycle.
    int entering = -1;
    double best_score = 0.0;
    for (const int j : movable_) {
      const auto sj = static_cast<std::size_t>(j);
      if (banned_[sj]) continue;
      const double d = minus_column_dot(sj, phase1 ? 0.0 : cost_[sj], y_);
      const bool improving =
          vstat_[sj] == kAtLower ? (d > kOptTol) : (d < -kOptTol);
      if (!improving) continue;
      if (bland) {
        entering = j;
        break;
      }
      if (std::abs(d) > best_score) {
        best_score = std::abs(d);
        entering = j;
      }
    }

    if (entering < 0) {
      solution.status = phase1 ? LpStatus::Infeasible : LpStatus::Optimal;
      break;
    }

    const int dir = vstat_[static_cast<std::size_t>(entering)] == kAtLower
                        ? +1
                        : -1;
    load_column(entering, work_);
    ftran(work_);

    // Ratio test over the basic variables plus the entering variable's own
    // opposite bound (a bound flip). Basic variables already outside a
    // bound block at the bound they are returning to, which keeps phase-1
    // steps from overshooting feasibility.
    double best_t = upper_[static_cast<std::size_t>(entering)];  // flip
    int block_row = -1;
    bool leave_at_upper = false;
    for (int r = 0; r < m_; ++r) {
      const double wv = work_[static_cast<std::size_t>(r)];
      if (std::abs(wv) < kRatioTol) continue;
      const double delta = -dir * wv;  // d x_B[r] / dt
      const double v = x_basic_[static_cast<std::size_t>(r)];
      const double u =
          upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
      double target;
      if (delta > 0.0) {
        if (v > u + kFeasTol) continue;  // above and rising: no block here
        target = v < -kFeasTol ? 0.0 : u;
        if (!std::isfinite(target)) continue;
      } else {
        if (v < -kFeasTol) continue;  // below and falling: no block here
        target = v > u + kFeasTol ? u : 0.0;
      }
      double t = (target - v) / delta;
      if (t < 0.0) t = 0.0;
      bool take = false;
      if (t < best_t - kRatioTol) {
        take = true;
      } else if (t < best_t + kRatioTol && block_row >= 0) {
        take = bland
                   ? basis_[static_cast<std::size_t>(r)] <
                         basis_[static_cast<std::size_t>(block_row)]
                   : std::abs(wv) >
                         std::abs(work_[static_cast<std::size_t>(block_row)]);
      }
      if (take) {
        if (t < best_t) best_t = t;
        block_row = r;
        // A column fixed at zero leaves at lower: both bounds coincide.
        leave_at_upper = target == u && std::isfinite(u) && u > 0.0;
      }
    }

    if (!std::isfinite(best_t)) {
      // Phase 1 maximizes a function bounded by zero, so an unbounded ray
      // can only be numerical noise there; report it as the limit status.
      solution.status = phase1 ? LpStatus::IterationLimit : LpStatus::Unbounded;
      break;
    }

    if (block_row >= 0 &&
        std::abs(work_[static_cast<std::size_t>(block_row)]) < kPivotTol) {
      // Unstable pivot: retry against a fresh factorization, and if the
      // column stays unusable, bar it from this pricing round.
      if (pivots_since_refactor_ > 0) {
        if (!refactorize()) {
          solution.status = LpStatus::IterationLimit;
          break;
        }
        compute_basic_values();
        continue;
      }
      banned_[static_cast<std::size_t>(entering)] = 1;
      banned_list_.push_back(entering);
      continue;
    }

    ++iterations;
    if (best_t > 0.0)
      for (int r = 0; r < m_; ++r)
        x_basic_[static_cast<std::size_t>(r)] +=
            -dir * work_[static_cast<std::size_t>(r)] * best_t;

    if (block_row < 0) {
      // Bound flip: the entering variable crosses to its other bound
      // without any basis change.
      vstat_[static_cast<std::size_t>(entering)] =
          dir > 0 ? kAtUpper : kAtLower;
    } else {
      const int leaving = basis_[static_cast<std::size_t>(block_row)];
      vstat_[static_cast<std::size_t>(leaving)] =
          leave_at_upper ? kAtUpper : kAtLower;
      x_basic_[static_cast<std::size_t>(block_row)] =
          dir > 0 ? best_t
                  : upper_[static_cast<std::size_t>(entering)] - best_t;
      basis_[static_cast<std::size_t>(block_row)] = entering;
      basis_unchanged_ = false;
      vstat_[static_cast<std::size_t>(entering)] = kBasic;
      swap_movable(entering, leaving);
      append_eta(work_, block_row);
      if (++pivots_since_refactor_ >= kRefactorInterval) {
        if (!refactorize()) {
          solution.status = LpStatus::IterationLimit;
          break;
        }
        compute_basic_values();
      }
    }

    for (const int j : banned_list_) banned_[static_cast<std::size_t>(j)] = 0;
    banned_list_.clear();

    if (best_t > kRatioTol) {
      degenerate_streak = 0;
      bland = false;
    } else if (++degenerate_streak >= kBlandStreak) {
      bland = true;
    }
  }

  solution.iterations = static_cast<int>(iterations);
  solution.refactorizations = refactor_count_;
  solution.factor_reuses = factor_reuse_count_;
  check_basis_invariants();  // the basis the next solve starts from
  if (solution.status != LpStatus::Optimal) return solution;

  // One fresh factorization before extraction scrubs the drift a long eta
  // file accumulates.
  if (pivots_since_refactor_ > 0 && refactorize()) compute_basic_values();
  check_primal_residual();
  check_exit_feasibility();
  solution.refactorizations = refactor_count_;
  solution.factor_reuses = factor_reuse_count_;

  solution.x.assign(static_cast<std::size_t>(nstruct_), 0.0);
  for (int j = 0; j < nstruct_; ++j)
    if (vstat_[static_cast<std::size_t>(j)] == kAtUpper)
      solution.x[static_cast<std::size_t>(j)] =
          upper_[static_cast<std::size_t>(j)];
  for (int r = 0; r < m_; ++r) {
    const int j = basis_[static_cast<std::size_t>(r)];
    if (j >= nstruct_) continue;
    const double u = upper_[static_cast<std::size_t>(j)];
    double v = x_basic_[static_cast<std::size_t>(r)];
    v = std::max(0.0, std::isfinite(u) ? std::min(v, u) : v);
    solution.x[static_cast<std::size_t>(j)] = v;
  }
  solution.objective = 0.0;
  for (int j = 0; j < nstruct_; ++j)
    solution.objective +=
        problem.objective(j) * solution.x[static_cast<std::size_t>(j)];
  return solution;
}

LpSolver::LpSolver(const LpProblem& problem)
    : simplex_(std::make_unique<RevisedSimplex>(problem)) {}
LpSolver::~LpSolver() = default;

void LpSolver::crash(std::span<const std::pair<int, int>> column_rows) {
  simplex_->crash(column_rows);
}

LpSolution LpSolver::solve(const obs::Sink& sink) {
  obs::ScopedTimer timer(sink.metrics, "lp.solve_seconds");
  LpSolution solution = simplex_->solve();
  if (sink.metrics) {
    sink.metrics->count("lp.solves");
    sink.metrics->count("lp.iterations", solution.iterations);
    sink.metrics->count("lp.dual_iterations", solution.dual_iterations);
    sink.metrics->count("lp.refactorizations", solution.refactorizations);
    sink.metrics->count("lp.factor_reuses", solution.factor_reuses);
    if (solution.warm_started) sink.metrics->count("lp.warm_starts");
    if (solution.crash_started) sink.metrics->count("lp.crash_starts");
  }
  if (sink.trace)
    sink.trace->record(obs::Event::lp_solve(
        solution.iterations, solution.refactorizations,
        solution.warm_started, static_cast<int>(solution.status),
        solution.objective));
  return solution;
}

}  // namespace surfnet::routing
