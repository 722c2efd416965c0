// The multi-commodity relaxation of MinR (paper eq. 8) and its optimal face.
//
// Eq. (8) minimises the repair-cost-weighted flow crossing broken edges
// subject to full demand routing.  Its optimal solutions differ wildly in
// how many broken elements they touch (paper Fig. 3): MCB/MCW are the best
// and worst members of the optimal face.  Finding the true MCB is NP-hard
// (it is MinR again), so — like the paper — we characterise the face by
// sampling: pin the objective to its optimum with a cost-bound row, then
// re-optimise randomised secondary edge costs and count touched repairs.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/types.hpp"
#include "util/rng.hpp"

namespace netrec::mcf {

struct BrokenUsageResult {
  bool feasible = false;    ///< all demand routed
  double cost = 0.0;        ///< eq. (8) objective at optimum
  RoutingResult routing;
};

/// Solves eq. (8): min sum over broken edges of k^e * (flow on edge),
/// with every demand fully routed under the static capacities.  The supply
/// graph is the *full* graph (broken elements usable — using them is what
/// costs).
BrokenUsageResult min_broken_usage(const graph::Graph& g,
                                   const std::vector<Demand>& demands,
                                   const PathLpOptions& options = {});

/// Repairs implied by a routing: broken edges carrying flow and broken
/// nodes touched by flow-carrying paths.
struct ImpliedRepairs {
  std::vector<graph::EdgeId> edges;
  std::vector<graph::NodeId> nodes;
  std::size_t total() const { return edges.size() + nodes.size(); }
};

ImpliedRepairs implied_repairs(const graph::Graph& g,
                               const std::vector<PathFlow>& flows,
                               double tol = 1e-6);

struct OptimalFaceBand {
  bool feasible = false;
  double relaxation_cost = 0.0;   ///< eq. (8) optimum the face is pinned to
  std::size_t best_repairs = 0;   ///< MCB estimate (fewest seen)
  std::size_t worst_repairs = 0;  ///< MCW estimate (most seen)
  std::vector<std::size_t> samples;
};

/// Solves eq. (8), then samples `samples` vertices of its optimal face with
/// randomised secondary objectives and reports the repair-count band.  Each
/// solve runs on a fresh PathLpSession used once.
OptimalFaceBand explore_optimal_face(const graph::Graph& g,
                                     const std::vector<Demand>& demands,
                                     std::size_t samples, util::Rng& rng,
                                     const PathLpOptions& options = {});

}  // namespace netrec::mcf
