#include "core/problem.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/repair_state.hpp"
#include "graph/view.hpp"
#include "mcf/routing.hpp"

namespace netrec::core {

bool RecoveryProblem::feasible_when_fully_repaired() const {
  return mcf::is_routable(graph::GraphView::build(graph), demands);
}

void score_solution(const RecoveryProblem& problem,
                    RecoverySolution& solution, util::ThreadPool* pool) {
  RepairState state(problem.graph);
  solution.repair_cost = 0.0;
  for (graph::NodeId n : solution.repaired_nodes) {
    state.repair_node(n);
    solution.repair_cost += problem.graph.node_repair_cost(n);
  }
  for (graph::EdgeId e : solution.repaired_edges) {
    state.repair_edge(e);
    solution.repair_cost += problem.graph.edge_repair_cost(e);
  }
  solution.routing = mcf::max_routed_flow(
      graph::GraphView::build(problem.graph, {.edge_ok = state.edge_filter()}),
      problem.demands, pool);
  const double total = problem.total_demand();
  solution.satisfied_fraction =
      total > 0.0 ? solution.routing.total_routed / total : 1.0;
  // Clamp tiny LP overshoot.
  solution.satisfied_fraction = std::min(solution.satisfied_fraction, 1.0);
}

std::string validate_solution(const RecoveryProblem& problem,
                              const RecoverySolution& solution) {
  std::unordered_set<graph::NodeId> nodes;
  for (graph::NodeId n : solution.repaired_nodes) {
    if (n < 0 || static_cast<std::size_t>(n) >= problem.graph.num_nodes()) {
      return "repaired node id out of range";
    }
    if (!problem.graph.node_broken(n)) return "repaired node was not broken";
    if (!nodes.insert(n).second) return "node repaired twice";
  }
  std::unordered_set<graph::EdgeId> edges;
  for (graph::EdgeId e : solution.repaired_edges) {
    if (e < 0 || static_cast<std::size_t>(e) >= problem.graph.num_edges()) {
      return "repaired edge id out of range";
    }
    if (!problem.graph.edge_broken(e)) return "repaired edge was not broken";
    if (!edges.insert(e).second) return "edge repaired twice";
  }

  RepairState state(problem.graph);
  for (graph::NodeId n : solution.repaired_nodes) state.repair_node(n);
  for (graph::EdgeId e : solution.repaired_edges) state.repair_edge(e);

  const graph::Graph& g = problem.graph;
  if (!mcf::routing_is_valid(
          g, problem.demands, solution.routing.flows, state.edge_filter(),
          [&g](graph::EdgeId e) { return g.edge_capacity(e); })) {
    return "routing invalid on the repaired subgraph";
  }
  const double total = problem.total_demand();
  if (total > 0.0) {
    const double fraction = solution.routing.total_routed / total;
    if (std::abs(std::min(fraction, 1.0) - solution.satisfied_fraction) >
        1e-4) {
      return "satisfied_fraction inconsistent with routing";
    }
  }
  return {};
}

}  // namespace netrec::core
