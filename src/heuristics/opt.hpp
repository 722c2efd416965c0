// OPT — the exact / best-effort MinR solver (paper eq. 1).
//
// Three engines, picked by instance structure and budget:
//
//  1. Steiner specialisation: when the whole demand fits on any single edge
//     (sum d_h <= min capacity), MinR equals node-weighted Steiner Forest
//     (Theorem 1's reduction run forward) and Dreyfus-Wagner solves it
//     *provably optimally* — this covers the paper's Fig. 7 family.  It is
//     always tried on such instances and gives up above 16 distinct
//     terminals (steiner.hpp).
//  2. Branch-and-bound on the arc-flow MILP with disaggregated linking rows
//     (a strictly tighter relaxation than eq. 1(c)'s eta_max form), seeded
//     with an ISP + local-search incumbent as cutoff, within
//     OptOptions::time_limit_seconds (skipped when that budget is 0).
//  3. Fallback: the incumbent itself, i.e. ISP tightened by local search.
//
// The result records whether optimality was proven within the budget, which
// tells exact OPT data points from best-found ones — the paper's own
// 27-hour Gurobi runs get the same caveat.  The figure drivers do not
// print it yet; README's "Where netrec departs from the paper" says which
// figures' OPT points are proven.
#pragma once

#include <optional>

#include "core/problem.hpp"

namespace netrec::heuristics {

struct OptOptions {
  /// Branch-and-bound wall-clock budget; 0 (or less) skips the MILP engine.
  double time_limit_seconds = 10.0;
  /// Extra randomised-metric ISP runs used to diversify the incumbent on
  /// instances where the MILP is out of reach (e.g. CAIDA scale).
  std::size_t isp_restarts = 2;
};

struct OptOutcome {
  core::RecoverySolution solution;
  bool proven_optimal = false;
  /// Lower bound on the optimal repair cost (equals solution cost when
  /// proven; -inf when nothing could be bounded in the budget).
  double lower_bound = 0.0;
  const char* engine = "fallback";
};

/// Solves MinR.  `warm` (typically an ISP solution) seeds the incumbent; if
/// absent, ISP is run internally.
OptOutcome solve_opt(const core::RecoveryProblem& problem,
                     const OptOptions& options = {},
                     const core::RecoverySolution* warm = nullptr);

/// True when every demand fits any single positive-capacity edge, i.e. the
/// instance is connectivity-only and the Steiner engine is exact.
bool is_connectivity_only(const core::RecoveryProblem& problem);

}  // namespace netrec::heuristics
