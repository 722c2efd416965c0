#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/log.hpp"

namespace netrec::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

namespace {

constexpr double kFeasibilityTol = 1e-7;
constexpr double kOptimalityTol = 1e-7;
/// Minimum |pivot| accepted; smaller candidates are skipped.
constexpr double kPivotTol = 1e-8;
/// Rebuild the basis inverse from scratch every this many pivots.
constexpr int kRefactorInterval = 256;
/// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kDegeneracyThreshold = 64;

/// Internal variable layout: [0, n_struct) structural, [n_struct,
/// n_struct+m) slacks, [n_struct+m, n_struct+2m) phase-1 artificials.
class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const SolveOptions& options)
      : model_(model), opt_(options) {
    n_struct_ = model.num_variables();
    m_ = model.num_constraints();
    n_total_ = n_struct_ + 2 * m_;
    build_internal();
  }

  Solution run(Basis* warm);

 private:
  struct Column {
    std::vector<Entry> entries;
  };

  void build_internal() {
    lower_.assign(static_cast<std::size_t>(n_total_), 0.0);
    upper_.assign(static_cast<std::size_t>(n_total_), 0.0);
    cost_.assign(static_cast<std::size_t>(n_total_), 0.0);
    columns_.resize(static_cast<std::size_t>(n_total_));
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);

    const double sign = model_.goal == Goal::kMinimize ? 1.0 : -1.0;
    for (int j = 0; j < n_struct_; ++j) {
      const Variable& v = model_.variable(j);
      lower_[static_cast<std::size_t>(j)] = v.lower;
      upper_[static_cast<std::size_t>(j)] = v.upper;
      cost_[static_cast<std::size_t>(j)] = sign * v.cost;
      columns_[static_cast<std::size_t>(j)].entries = v.column;
    }
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model_.constraint(i);
      rhs_[static_cast<std::size_t>(i)] = c.rhs;
      const int slack = slack_index(i);
      columns_[static_cast<std::size_t>(slack)].entries = {Entry{i, 1.0}};
      switch (c.sense) {
        case Sense::kLessEqual:
          lower_[static_cast<std::size_t>(slack)] = 0.0;
          upper_[static_cast<std::size_t>(slack)] = kInfinity;
          break;
        case Sense::kGreaterEqual:
          lower_[static_cast<std::size_t>(slack)] = -kInfinity;
          upper_[static_cast<std::size_t>(slack)] = 0.0;
          break;
        case Sense::kEqual:
          lower_[static_cast<std::size_t>(slack)] = 0.0;
          upper_[static_cast<std::size_t>(slack)] = 0.0;
          break;
      }
      // Artificial column sign is fixed at phase-1 setup.
      const int art = artificial_index(i);
      lower_[static_cast<std::size_t>(art)] = 0.0;
      upper_[static_cast<std::size_t>(art)] = 0.0;  // opened during phase 1
    }
  }

  int slack_index(int row) const { return n_struct_ + row; }
  int artificial_index(int row) const { return n_struct_ + m_ + row; }
  bool is_artificial(int v) const { return v >= n_struct_ + m_; }

  double bound_start_value(int v) const {
    const double lo = lower_[static_cast<std::size_t>(v)];
    const double hi = upper_[static_cast<std::size_t>(v)];
    if (std::isfinite(lo)) return lo;
    if (std::isfinite(hi)) return hi;
    return 0.0;
  }

  // --- linear algebra ----------------------------------------------------

  double& binv(int r, int c) {
    return binv_[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(c)];
  }
  double binv_at(int r, int c) const {
    return binv_[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(c)];
  }

  /// Rebuilds binv_ from the current basis; false when the basis is singular.
  bool refactorize() {
    // Dense Gauss-Jordan on [B | I].
    std::vector<double> work(
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
    auto w = [&](int r, int c) -> double& {
      return work[static_cast<std::size_t>(r) * static_cast<std::size_t>(m_) +
                  static_cast<std::size_t>(c)];
    };
    for (int k = 0; k < m_; ++k) {
      const int v = basic_of_row_[static_cast<std::size_t>(k)];
      for (const Entry& e : columns_[static_cast<std::size_t>(v)].entries) {
        w(e.row, k) = e.value;
      }
    }
    binv_.assign(
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) binv(i, i) = 1.0;

    for (int col = 0; col < m_; ++col) {
      int pivot_row = -1;
      double best = kPivotTol;
      for (int r = col; r < m_; ++r) {
        if (std::abs(w(r, col)) > best) {
          best = std::abs(w(r, col));
          pivot_row = r;
        }
      }
      if (pivot_row < 0) return false;
      if (pivot_row != col) {
        // Row swaps are ordinary row operations: they fold into the
        // accumulated inverse and must NOT permute the slot-to-variable map.
        for (int c = 0; c < m_; ++c) {
          std::swap(w(pivot_row, c), w(col, c));
          std::swap(binv(pivot_row, c), binv(col, c));
        }
      }
      const double inv_p = 1.0 / w(col, col);
      for (int c = 0; c < m_; ++c) {
        w(col, c) *= inv_p;
        binv(col, c) *= inv_p;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double factor = w(r, col);
        if (factor == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          w(r, c) -= factor * w(col, c);
          binv(r, c) -= factor * binv(col, c);
        }
      }
    }
    return true;
  }

  /// Recomputes basic variable values from nonbasic bounds: x_B = Binv(b-Nx_N).
  void recompute_basics() {
    std::vector<double> residual = rhs_;
    std::vector<char> basic(static_cast<std::size_t>(n_total_), 0);
    for (int r = 0; r < m_; ++r) {
      const auto row_var = basic_of_row_[static_cast<std::size_t>(r)];
      basic[static_cast<std::size_t>(row_var)] = 1;
    }
    for (int v = 0; v < n_total_; ++v) {
      if (basic[static_cast<std::size_t>(v)]) continue;
      const double xv = x_[static_cast<std::size_t>(v)];
      if (xv == 0.0) continue;
      for (const Entry& e : columns_[static_cast<std::size_t>(v)].entries) {
        residual[static_cast<std::size_t>(e.row)] -= e.value * xv;
      }
    }
    for (int r = 0; r < m_; ++r) {
      double value = 0.0;
      for (int c = 0; c < m_; ++c) {
        value += binv_at(r, c) * residual[static_cast<std::size_t>(c)];
      }
      x_[static_cast<std::size_t>(
          basic_of_row_[static_cast<std::size_t>(r)])] = value;
    }
  }

  std::vector<double> compute_duals() const {
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      const auto row_var = basic_of_row_[static_cast<std::size_t>(r)];
      const double cb = cost_[static_cast<std::size_t>(row_var)];
      if (cb == 0.0) continue;
      for (int c = 0; c < m_; ++c) {
        y[static_cast<std::size_t>(c)] += cb * binv_at(r, c);
      }
    }
    return y;
  }

  double reduced_cost(int v, const std::vector<double>& y) const {
    double d = cost_[static_cast<std::size_t>(v)];
    for (const Entry& e : columns_[static_cast<std::size_t>(v)].entries) {
      d -= y[static_cast<std::size_t>(e.row)] * e.value;
    }
    return d;
  }

  std::vector<double> ftran(int v) const {
    std::vector<double> w(static_cast<std::size_t>(m_), 0.0);
    for (const Entry& e : columns_[static_cast<std::size_t>(v)].entries) {
      const double a = e.value;
      for (int r = 0; r < m_; ++r) {
        w[static_cast<std::size_t>(r)] += binv_at(r, e.row) * a;
      }
    }
    return w;
  }

  void pivot_update(int leaving_row, const std::vector<double>& w) {
    const double inv_p = 1.0 / w[static_cast<std::size_t>(leaving_row)];
    // New row `leaving_row` of the inverse, then eliminate it elsewhere.
    for (int c = 0; c < m_; ++c) binv(leaving_row, c) *= inv_p;
    for (int r = 0; r < m_; ++r) {
      if (r == leaving_row) continue;
      const double factor = w[static_cast<std::size_t>(r)];
      if (std::abs(factor) < 1e-14) continue;
      for (int c = 0; c < m_; ++c) {
        binv(r, c) -= factor * binv(leaving_row, c);
      }
    }
  }

  // --- simplex iterations --------------------------------------------------

  /// One phase of primal simplex; returns the terminal status for the phase.
  SolveStatus iterate(long& iterations) {
    int degenerate_run = 0;
    bool use_bland = false;
    int pivots_since_refactor = 0;

    while (iterations < opt_.max_iterations) {
      ++iterations;
      const std::vector<double> y = compute_duals();

      // Pricing: pick entering variable and direction.
      int entering = -1;
      double entering_dir = 0.0;
      double best_violation = kOptimalityTol;
      std::vector<char> basic(static_cast<std::size_t>(n_total_), 0);
      for (int r = 0; r < m_; ++r) {
        basic[static_cast<std::size_t>(
            basic_of_row_[static_cast<std::size_t>(r)])] = 1;
      }
      for (int v = 0; v < n_total_; ++v) {
        if (basic[static_cast<std::size_t>(v)]) continue;
        const double lo = lower_[static_cast<std::size_t>(v)];
        const double hi = upper_[static_cast<std::size_t>(v)];
        if (hi - lo < 1e-14) continue;  // fixed, can never move
        const double xv = x_[static_cast<std::size_t>(v)];
        const double d = reduced_cost(v, y);
        const bool can_increase = xv < hi - 1e-14;
        const bool can_decrease = xv > lo + 1e-14;
        double dir = 0.0;
        double violation = 0.0;
        if (d < -kOptimalityTol && can_increase) {
          dir = 1.0;
          violation = -d;
        } else if (d > kOptimalityTol && can_decrease) {
          dir = -1.0;
          violation = d;
        } else {
          continue;
        }
        if (use_bland) {
          entering = v;
          entering_dir = dir;
          break;  // Bland: first eligible index
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = v;
          entering_dir = dir;
        }
      }
      if (entering < 0) return SolveStatus::kOptimal;

      const std::vector<double> w = ftran(entering);

      // Bounded-variable ratio test.  The entering variable moves by
      // entering_dir * t; basic i changes at rate -entering_dir * w_i.
      const double span = upper_[static_cast<std::size_t>(entering)] -
                          lower_[static_cast<std::size_t>(entering)];
      double t_best = span;  // bound-flip limit (may be +inf)
      int leaving_row = -1;
      double leaving_bound = 0.0;
      double best_pivot_mag = 0.0;
      for (int r = 0; r < m_; ++r) {
        const double rate =
            -entering_dir * w[static_cast<std::size_t>(r)];
        if (std::abs(rate) < kPivotTol) continue;
        const int b = basic_of_row_[static_cast<std::size_t>(r)];
        const double xb = x_[static_cast<std::size_t>(b)];
        double t_row;
        double bound;
        if (rate < 0.0) {
          const double lo = lower_[static_cast<std::size_t>(b)];
          if (!std::isfinite(lo)) continue;
          t_row = (xb - lo) / (-rate);
          bound = lo;
        } else {
          const double hi = upper_[static_cast<std::size_t>(b)];
          if (!std::isfinite(hi)) continue;
          t_row = (hi - xb) / rate;
          bound = hi;
        }
        t_row = std::max(t_row, 0.0);
        const double mag = std::abs(w[static_cast<std::size_t>(r)]);
        const bool strictly_better = t_row < t_best - 1e-12;
        const bool tie = std::abs(t_row - t_best) <= 1e-12;
        bool take = strictly_better;
        if (tie && leaving_row >= 0) {
          if (use_bland) {
            take = basic_of_row_[static_cast<std::size_t>(r)] <
                   basic_of_row_[static_cast<std::size_t>(leaving_row)];
          } else {
            take = mag > best_pivot_mag;  // prefer numerically safer pivots
          }
        } else if (tie && leaving_row < 0) {
          take = true;
        }
        if (take) {
          t_best = t_row;
          leaving_row = r;
          leaving_bound = bound;
          best_pivot_mag = mag;
        }
      }

      if (!std::isfinite(t_best)) return SolveStatus::kUnbounded;

      // Track degeneracy for the Bland switch.
      if (t_best < 1e-11) {
        if (++degenerate_run >= kDegeneracyThreshold) use_bland = true;
      } else {
        degenerate_run = 0;
        use_bland = false;
      }

      // Apply the step to the entering variable and all basics.
      x_[static_cast<std::size_t>(entering)] += entering_dir * t_best;
      if (t_best > 0.0) {
        for (int r = 0; r < m_; ++r) {
          const double rate = -entering_dir * w[static_cast<std::size_t>(r)];
          if (rate == 0.0) continue;
          const int b = basic_of_row_[static_cast<std::size_t>(r)];
          x_[static_cast<std::size_t>(b)] += rate * t_best;
        }
      }

      if (leaving_row < 0) continue;  // bound flip, basis unchanged

      // Pivot: snap the leaving variable exactly onto its bound.
      const int leaving = basic_of_row_[static_cast<std::size_t>(leaving_row)];
      x_[static_cast<std::size_t>(leaving)] = leaving_bound;
      basic_of_row_[static_cast<std::size_t>(leaving_row)] = entering;
      pivot_update(leaving_row, w);

      if (++pivots_since_refactor >= kRefactorInterval) {
        if (!refactorize()) {
          throw std::runtime_error("simplex: basis became singular");
        }
        recompute_basics();
        pivots_since_refactor = 0;
      }
    }
    return SolveStatus::kIterationLimit;
  }

  /// Repairs a decoded warm basis left primal infeasible by appended rows or
  /// rhs/bound drift: every row whose basic variable sits outside its bounds
  /// hands the row to an (opened) artificial, with the old basic snapped to
  /// its violated bound; an artificial that comes out negative has its
  /// column sign flipped.  Each pass refactorises, so a handful of passes
  /// settles the signs; returns false when the basis stays unusable and the
  /// caller should cold-start.  On success `need_phase1` reports whether any
  /// artificial is basic at a positive value (phase 1 must drive it out).
  bool warm_repair(bool& need_phase1) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (!refactorize()) return false;
      recompute_basics();
      bool any_violation = false;
      for (int r = 0; r < m_; ++r) {
        const int b = basic_of_row_[static_cast<std::size_t>(r)];
        const double xb = x_[static_cast<std::size_t>(b)];
        const double lo = lower_[static_cast<std::size_t>(b)];
        const double hi = upper_[static_cast<std::size_t>(b)];
        if (xb >= lo - kFeasibilityTol && xb <= hi + kFeasibilityTol) {
          continue;
        }
        any_violation = true;
        if (is_artificial(b)) {
          // Wrong sign guess: mirror the column so the value comes out >= 0.
          columns_[static_cast<std::size_t>(b)].entries[0].value *= -1.0;
          continue;
        }
        // The violated side is necessarily finite.
        x_[static_cast<std::size_t>(b)] = xb < lo ? lo : hi;
        const int art = artificial_index(r);
        columns_[static_cast<std::size_t>(art)].entries = {Entry{r, 1.0}};
        upper_[static_cast<std::size_t>(art)] = kInfinity;
        x_[static_cast<std::size_t>(art)] = 0.0;
        basic_of_row_[static_cast<std::size_t>(r)] = art;
      }
      if (!any_violation) {
        need_phase1 = false;
        for (int r = 0; r < m_; ++r) {
          const int b = basic_of_row_[static_cast<std::size_t>(r)];
          if (is_artificial(b) &&
              x_[static_cast<std::size_t>(b)] > kFeasibilityTol) {
            need_phase1 = true;
            break;
          }
        }
        return true;
      }
    }
    return false;
  }

  /// Cold start: nonbasics to bounds, artificial basis sized to residuals.
  void cold_start() {
    for (int v = 0; v < n_struct_ + m_; ++v) {
      x_[static_cast<std::size_t>(v)] = bound_start_value(v);
    }
    std::vector<double> residual = rhs_;
    for (int v = 0; v < n_struct_ + m_; ++v) {
      const double xv = x_[static_cast<std::size_t>(v)];
      if (xv == 0.0) continue;
      for (const Entry& e : columns_[static_cast<std::size_t>(v)].entries) {
        residual[static_cast<std::size_t>(e.row)] -= e.value * xv;
      }
    }
    basic_of_row_.resize(static_cast<std::size_t>(m_));
    binv_.assign(
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int art = artificial_index(i);
      const double sign = residual[static_cast<std::size_t>(i)] >= 0.0
                              ? 1.0
                              : -1.0;
      columns_[static_cast<std::size_t>(art)].entries = {Entry{i, sign}};
      upper_[static_cast<std::size_t>(art)] = kInfinity;  // open for phase 1
      x_[static_cast<std::size_t>(art)] =
          std::abs(residual[static_cast<std::size_t>(i)]);
      basic_of_row_[static_cast<std::size_t>(i)] = art;
      binv(i, i) = sign;
    }
  }

  const Model& model_;
  const SolveOptions& opt_;
  int n_struct_ = 0;
  int m_ = 0;
  int n_total_ = 0;

  std::vector<double> lower_, upper_, cost_, rhs_, x_, binv_;
  std::vector<Column> columns_;
  std::vector<int> basic_of_row_;
};

Solution SimplexEngine::run(Basis* warm) {
  Solution solution;
  solution.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
  x_.assign(static_cast<std::size_t>(n_total_), 0.0);

  long iterations = 0;
  bool warm_started = false;
  bool warm_needs_phase1 = false;

  // Try the caller's basis: decode (negative ids are slacks), extend a
  // basis recorded for fewer rows with the new rows' slacks, rebuild the
  // inverse and repair primal infeasibility instead of rejecting it.  A
  // basis recorded for *more* rows than the model has is discarded.
  const int warm_rows = warm ? warm->rows : 0;
  const bool warm_usable =
      warm && warm_rows > 0 &&
      static_cast<int>(warm->basic_of_row.size()) == warm_rows &&
      warm_rows <= m_;
  if (warm_usable) {
    basic_of_row_.assign(static_cast<std::size_t>(m_), 0);
    bool decodable = true;
    for (int r = 0; r < warm_rows && decodable; ++r) {
      const int pub = warm->basic_of_row[static_cast<std::size_t>(r)];
      int internal;
      if (pub >= 0) {
        internal = pub;
        if (internal >= n_struct_) decodable = false;
      } else {
        internal = slack_index(-pub - 1);
        if (-pub - 1 >= m_) decodable = false;
      }
      if (decodable) basic_of_row_[static_cast<std::size_t>(r)] = internal;
    }
    // Appended rows enter with their own slacks basic: the extended basis
    // matrix is block triangular, so nonsingularity is inherited.
    for (int r = warm_rows; r < m_; ++r) {
      basic_of_row_[static_cast<std::size_t>(r)] = slack_index(r);
    }
    if (decodable) {
      // Nonbasic statuses: known vars from the warm record, new vars at
      // their default bound.
      for (int v = 0; v < n_struct_ + m_; ++v) {
        x_[static_cast<std::size_t>(v)] = bound_start_value(v);
      }
      for (std::size_t v = 0; v < warm->structural_status.size() &&
                              v < static_cast<std::size_t>(n_struct_);
           ++v) {
        if (warm->structural_status[v] == VarStatus::kAtUpper &&
            std::isfinite(upper_[v])) {
          x_[v] = upper_[v];
        }
      }
      for (int i = 0;
           i < warm_rows && i < static_cast<int>(warm->slack_status.size());
           ++i) {
        const std::size_t s = static_cast<std::size_t>(slack_index(i));
        if (warm->slack_status[static_cast<std::size_t>(i)] ==
                VarStatus::kAtUpper &&
            std::isfinite(upper_[s])) {
          x_[s] = upper_[s];
        }
      }
      warm_started = warm_repair(warm_needs_phase1);
    }
  }

  if (!warm_started) cold_start();
  if (!warm_started || warm_needs_phase1) {
    // Phase 1: minimise the artificial sum (all of them after a cold start,
    // only the repair-opened ones after a degraded warm start — the rest
    // stay fixed at zero and cannot move).
    std::vector<double> real_costs = cost_;
    for (int v = 0; v < n_total_; ++v) {
      cost_[static_cast<std::size_t>(v)] = is_artificial(v) ? 1.0 : 0.0;
    }
    const SolveStatus phase1 = iterate(iterations);
    double infeasibility = 0.0;
    for (int i = 0; i < m_; ++i) {
      infeasibility += x_[static_cast<std::size_t>(artificial_index(i))];
    }
    cost_ = real_costs;
    if (phase1 == SolveStatus::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      solution.iterations = iterations;
      return solution;
    }
    if (phase1 == SolveStatus::kUnbounded) {
      throw std::logic_error("simplex: phase 1 cannot be unbounded");
    }
    if (infeasibility > 1e-6) {
      solution.status = SolveStatus::kInfeasible;
      solution.iterations = iterations;
      return solution;
    }
  }
  // Close the artificials for phase 2 (they may stay basic at 0).  This
  // must run even when a warm repair opened artificials but found no
  // phase-1 work (all within tolerance): a zero-cost artificial left with
  // an infinite upper would let phase 2 silently relax its row.
  for (int i = 0; i < m_; ++i) {
    const int art = artificial_index(i);
    upper_[static_cast<std::size_t>(art)] = 0.0;
    if (x_[static_cast<std::size_t>(art)] < 0.0) {
      x_[static_cast<std::size_t>(art)] = 0.0;
    }
  }

  const SolveStatus phase2 = iterate(iterations);
  solution.iterations = iterations;
  solution.status = phase2;
  if (phase2 == SolveStatus::kUnbounded) return solution;
  if (phase2 == SolveStatus::kIterationLimit) {
    NETREC_LOG(kWarn) << "simplex hit iteration limit (" << iterations << ")";
  }

  // Export primal values, duals, reduced costs in user orientation.
  const double sign = model_.goal == Goal::kMinimize ? 1.0 : -1.0;
  for (int j = 0; j < n_struct_; ++j) {
    solution.x[static_cast<std::size_t>(j)] = x_[static_cast<std::size_t>(j)];
  }
  solution.objective = model_.objective_value(solution.x);
  const std::vector<double> y = compute_duals();
  solution.duals.assign(static_cast<std::size_t>(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    solution.duals[static_cast<std::size_t>(r)] =
        sign * y[static_cast<std::size_t>(r)];
  }
  solution.reduced_costs.assign(static_cast<std::size_t>(n_struct_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    solution.reduced_costs[static_cast<std::size_t>(j)] =
        sign * reduced_cost(j, y);
  }

  // Persist the basis for warm re-solves.
  if (warm) {
    warm->rows = m_;
    warm->basic_of_row.assign(static_cast<std::size_t>(m_), 0);
    for (int r = 0; r < m_; ++r) {
      int v = basic_of_row_[static_cast<std::size_t>(r)];
      if (is_artificial(v)) {
        // A degenerate artificial (basic at 0) occupies a unit column on its
        // own row — structurally identical to the row's slack, so export
        // the slack.  Any resulting infeasibility is what warm_repair
        // exists for.
        v = slack_index(v - n_struct_ - m_);
      }
      warm->basic_of_row[static_cast<std::size_t>(r)] =
          v < n_struct_ ? v : -(v - n_struct_) - 1;
    }
    warm->structural_status.assign(static_cast<std::size_t>(n_struct_),
                                   VarStatus::kAtLower);
    warm->slack_status.assign(static_cast<std::size_t>(m_),
                              VarStatus::kAtLower);
    std::vector<char> basic(static_cast<std::size_t>(n_total_), 0);
    for (int r = 0; r < m_; ++r) {
      basic[static_cast<std::size_t>(
          basic_of_row_[static_cast<std::size_t>(r)])] = 1;
    }
    auto status_of = [&](int v) {
      if (basic[static_cast<std::size_t>(v)]) return VarStatus::kBasic;
      const double hi = upper_[static_cast<std::size_t>(v)];
      const bool at_upper =
          std::isfinite(hi) &&
          std::abs(x_[static_cast<std::size_t>(v)] - hi) < 1e-9;
      return at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    };
    for (int v = 0; v < n_struct_; ++v) {
      warm->structural_status[static_cast<std::size_t>(v)] = status_of(v);
    }
    for (int i = 0; i < m_; ++i) {
      warm->slack_status[static_cast<std::size_t>(i)] =
          status_of(slack_index(i));
    }
  }
  return solution;
}

}  // namespace

Solution solve(const Model& model, const SolveOptions& options, Basis* warm) {
  if (model.num_constraints() == 0) {
    // Pure bound problem: every variable sits at its cheapest bound.
    Solution s;
    s.status = SolveStatus::kOptimal;
    s.x.resize(static_cast<std::size_t>(model.num_variables()));
    const double sign = model.goal == Goal::kMinimize ? 1.0 : -1.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      const double c = sign * v.cost;
      double value;
      if (c > 0.0) {
        value = v.lower;
      } else if (c < 0.0) {
        value = v.upper;
      } else {
        value = std::isfinite(v.lower) ? v.lower : 0.0;
      }
      if (!std::isfinite(value)) {
        s.status = SolveStatus::kUnbounded;
        return s;
      }
      s.x[static_cast<std::size_t>(j)] = value;
    }
    s.objective = model.objective_value(s.x);
    s.reduced_costs.resize(static_cast<std::size_t>(model.num_variables()));
    for (int j = 0; j < model.num_variables(); ++j) {
      s.reduced_costs[static_cast<std::size_t>(j)] = model.variable(j).cost;
    }
    return s;
  }
  SimplexEngine engine(model, options);
  return engine.run(warm);
}

}  // namespace netrec::lp
