// Bounded-variable revised simplex.
//
// This is the LP engine behind everything optimisation-shaped in netrec:
// routability tests (eq. 2), the split-amount LP (Section IV-C), the
// multi-commodity relaxation (eq. 8) and the MILP relaxations solved inside
// branch-and-bound.  Design points:
//
//  * bounded variables (l <= x <= u, either side may be infinite) so flow
//    models need no bound rows;
//  * two-phase method with per-row artificials, so a warm basis that turns
//    out infeasible is repaired by a phase 1 over its violated rows only;
//  * explicit dense basis inverse with product-form pivot updates and
//    periodic refactorisation (Gauss-Jordan with partial pivoting) — simple,
//    numerically observable, and fast enough for the paper's model sizes
//    (master LPs stay in the hundreds of rows thanks to lazy capacity rows);
//  * Dantzig pricing with an automatic switch to Bland's rule after a run of
//    degenerate pivots, which guarantees termination.
//
// The solver reports primal values, duals and reduced costs; duals follow
// the convention d_j = c_j - y'A_j >= 0 for nonbasic-at-lower variables of a
// minimisation (so binding <= rows get nonpositive duals).
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace netrec::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus status);

/// The tolerances, the refactorisation interval and the anti-cycling switch
/// are constants of simplex.cpp.
struct SolveOptions {
  long max_iterations = 200'000;
};

/// Nonbasic variables rest at one of their bounds.
enum class VarStatus : unsigned char { kBasic, kAtLower, kAtUpper };

/// Opaque warm-start state for re-solves of the same model, possibly with
/// changed bounds, rhs or costs and extended with new variables (they start
/// nonbasic at a bound) or new rows (their slacks enter the basis).  The
/// warm start degrades instead of failing: a basis left primal infeasible
/// is repaired by swapping artificials into the violated rows and running
/// phase 1 from there — a partial restart proportional to the damage, not a
/// full cold start.  A basis recorded for *more* rows than the model has is
/// discarded (stale dimensions; cold start).  Slack statuses are kept
/// separate from structural ones so the record survives column additions
/// (their indices would otherwise shift).
struct Basis {
  /// Variable per row: index >= 0 is structural, -(i+1) is row i's slack.
  std::vector<int> basic_of_row;
  std::vector<VarStatus> structural_status;  ///< per structural variable
  std::vector<VarStatus> slack_status;       ///< per row
  int rows = 0;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;            ///< in the model's goal orientation
  std::vector<double> x;             ///< primal values, per model variable
  std::vector<double> duals;         ///< per row (minimisation convention)
  std::vector<double> reduced_costs; ///< per model variable
  long iterations = 0;
};

/// Solves the model.  When `warm` is non-null it is used as a starting basis
/// if compatible, and overwritten with the final basis on return.
Solution solve(const Model& model, const SolveOptions& options = {},
               Basis* warm = nullptr);

}  // namespace netrec::lp
