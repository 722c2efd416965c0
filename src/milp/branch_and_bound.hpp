// Mixed-integer LP via branch and bound — the engine behind OPT.
//
// The paper solves MinR (eq. 1) with Gurobi; offline we bring our own MILP:
// LP relaxations from lp::solve, best-bound node selection, most-fractional
// branching, and incumbent cutoffs (seeded from ISP + local search so the
// tree prunes hard).  OPT results are exact when the tree closes within the
// budget; otherwise the best incumbent plus a proven lower bound is
// reported — mirroring how the paper treats its own 27-hour Gurobi runs.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace netrec::milp {

/// The search budget.  The integrality tolerance and the absolute
/// optimality gap are constants of branch_and_bound.cpp.
struct MilpOptions {
  double time_limit_seconds = 10.0;
  long max_nodes = 200'000;
};

struct MilpResult {
  bool feasible = false;        ///< an integral incumbent exists
  bool proven_optimal = false;  ///< tree closed within budget
  double objective = 0.0;       ///< incumbent objective (min orientation)
  double bound = 0.0;           ///< global lower bound (min orientation)
  std::vector<double> x;        ///< incumbent assignment
  long nodes_explored = 0;
  double wall_seconds = 0.0;
};

class MilpSolver {
 public:
  /// `integer_vars` lists variable indices constrained to integrality
  /// (binaries are just integer vars with bounds [0,1]).  Only minimisation
  /// models are accepted; callers maximise by negating costs.
  MilpSolver(lp::Model model, std::vector<int> integer_vars,
             MilpOptions options = {});

  /// Seeds an upper cutoff (e.g. a heuristic solution's objective); nodes
  /// with LP bound above it are pruned immediately.
  void set_cutoff(double objective);

  MilpResult solve();

 private:
  lp::Model model_;
  std::vector<int> integer_vars_;
  MilpOptions opt_;
  bool has_cutoff_ = false;
  double cutoff_ = 0.0;
};

}  // namespace netrec::milp
