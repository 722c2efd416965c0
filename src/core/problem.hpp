// MinR problem instance and solution types (paper Section III).
//
// A RecoveryProblem couples a supply graph (whose nodes/edges carry broken
// flags and repair costs) with the demand graph H, represented as a list of
// (source, target, amount) demands.  Every algorithm in src/heuristics and
// ISP itself consumes this type and produces a RecoverySolution, so the
// bench drivers can score them uniformly.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/types.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::core {

struct RecoveryProblem {
  graph::Graph graph;
  std::vector<mcf::Demand> demands;

  double total_demand() const { return mcf::total_demand(demands); }

  /// True iff the demand would be routable with every element repaired —
  /// the feasibility premise of the paper's algorithms (Theorem 4).
  bool feasible_when_fully_repaired() const;
};

struct RecoverySolution {
  std::string algorithm;

  std::vector<graph::NodeId> repaired_nodes;
  std::vector<graph::EdgeId> repaired_edges;

  /// Sum of repair costs of the elements above (the MinR objective).
  double repair_cost = 0.0;

  /// Referee routing of the *original* demands over the repaired graph
  /// (static capacities); `routing.routed` measures per-demand satisfaction.
  mcf::RoutingResult routing;

  /// routed volume / total demand, in [0, 1]; the paper's Fig. 4(d) metric.
  double satisfied_fraction = 0.0;

  double wall_seconds = 0.0;
  std::size_t iterations = 0;

  /// False when even full repair cannot route the demand (the algorithms
  /// then do best effort and demand loss is expected).
  bool instance_feasible = true;

  std::size_t total_repairs() const {
    return repaired_nodes.size() + repaired_edges.size();
  }
};

/// Scores `repaired_*` against the problem: recomputes the referee routing,
/// satisfaction and repair cost.  Shared by all algorithms so no solver
/// grades its own homework.  The referee LP (mcf::max_routed_flow) seeds
/// and prices on `pool` when one is given; the score is the same at any
/// thread count.
void score_solution(const RecoveryProblem& problem, RecoverySolution& solution,
                    util::ThreadPool* pool = nullptr);

/// Validates a solution: repairs reference broken elements only, no
/// duplicates, routing is feasible on the repaired subgraph, and the claimed
/// satisfaction matches the routing.  Returns an empty string when valid,
/// else a diagnostic.
std::string validate_solution(const RecoveryProblem& problem,
                              const RecoverySolution& solution);

}  // namespace netrec::core
