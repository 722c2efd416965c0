// Baseline recovery policies (paper Section VI and the ALL yardstick).
//
//  * ALL      — repair every broken element (the figures' upper line).
//  * SRT      — shortest-path repair: per demand (largest first), repair the
//               successive shortest paths needed to carry it, treating
//               demands independently; may lose demand when paths overlap.
//  * GRD-COM  — knapsack-style greedy with flow commitment: rank all simple
//               paths by repair-cost/capacity, repair in rank order,
//               committing flow as it goes; may lose demand to bad commits.
//  * GRD-NC   — same ranking, no commitment: repairs paths until the exact
//               routability test passes; never loses demand on feasible
//               instances but repairs more.
//
// The greedy pair needs the enumerated path pool P(H,G); exactly like the
// paper, they are only usable when that enumeration is tractable (the bench
// drivers skip them on the CAIDA-scale topology).
#pragma once

#include "core/problem.hpp"

namespace netrec::heuristics {

struct GreedyOptions {
  /// Simple-path enumeration limit for P(H,G); paths longer than 20 hops
  /// are never enumerated.
  std::size_t max_paths_per_pair = 4000;
};

/// Repairs everything broken.
core::RecoverySolution solve_all(const core::RecoveryProblem& problem);

/// Shortest-path repair heuristic (Algorithm SRT).
core::RecoverySolution solve_srt(const core::RecoveryProblem& problem);

/// Greedy Commitment (Algorithm GRD-COM).
core::RecoverySolution solve_grd_com(const core::RecoveryProblem& problem,
                                     const GreedyOptions& options = {});

/// Greedy No-Commitment (Algorithm GRD-NC).
core::RecoverySolution solve_grd_nc(const core::RecoveryProblem& problem,
                                    const GreedyOptions& options = {});

}  // namespace netrec::heuristics
