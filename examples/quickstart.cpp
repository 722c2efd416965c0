// Quickstart: build a supply network, mark a disaster, run ISP, inspect the
// repair plan and the resulting routing.
//
//   $ ./quickstart
//
// This walks the library's core loop in ~60 lines: Builder -> Graph ->
// demands ->
// disruption -> IspSolver -> RecoverySolution.
#include <cstdio>
#include <string>

#include "netrec.hpp"

int main() {
  using namespace netrec;

  // 1. Supply graph: a ring of six sites with one cross link.
  graph::Builder builder;
  const auto a = builder.add_node("alpha", 0, 0);
  const auto b = builder.add_node("bravo", 1, 1);
  const auto c = builder.add_node("charlie", 2, 1);
  const auto d = builder.add_node("delta", 3, 0);
  const auto e = builder.add_node("echo", 2, -1);
  const auto f = builder.add_node("foxtrot", 1, -1);
  builder.add_edge(a, b, 10.0);
  builder.add_edge(b, c, 10.0);
  builder.add_edge(c, d, 10.0);
  builder.add_edge(d, e, 10.0);
  builder.add_edge(e, f, 10.0);
  builder.add_edge(f, a, 10.0);
  builder.add_edge(b, e, 5.0);  // cross link
  core::RecoveryProblem problem;
  problem.graph = builder.finalize();
  graph::Graph& g = problem.graph;

  // 2. Mission-critical demand: alpha <-> delta needs 8 units.
  problem.demands.push_back(mcf::Demand{a, d, 8.0});

  // 3. Disaster: everything breaks.
  disruption::complete_destruction(g);
  std::printf("disaster: %zu nodes, %zu edges down\n",
              g.num_broken_nodes(), g.num_broken_edges());

  // 4. Recover with ISP.
  core::IspSolver solver(problem);
  solver.set_trace(true);
  const core::RecoverySolution plan = solver.solve();

  // 5. Inspect the plan.
  std::printf("\nISP repair plan (%zu repairs, cost %.0f):\n",
              plan.total_repairs(), plan.repair_cost);
  for (graph::NodeId n : plan.repaired_nodes) {
    std::printf("  repair node %s\n", std::string(g.node_name(n)).c_str());
  }
  for (graph::EdgeId eid : plan.repaired_edges) {
    std::printf("  repair link %s - %s\n", std::string(g.node_name(g.edge_u(eid))).c_str(),
                std::string(g.node_name(g.edge_v(eid))).c_str());
  }
  std::printf("\nrouting (%.0f%% of demand satisfied):\n",
              plan.satisfied_fraction * 100.0);
  for (const mcf::PathFlow& flow : plan.routing.flows) {
    std::printf("  %.1f units via %s\n", flow.amount,
                flow.path.to_string(g).c_str());
  }

  std::printf("\nalgorithm trace:\n");
  for (const core::IspEvent& event : solver.stats().events) {
    std::printf("  %s\n", event.to_string().c_str());
  }

  // 6. Sanity: the independent validator agrees.
  const std::string verdict = core::validate_solution(problem, plan);
  std::printf("\nvalidator: %s\n", verdict.empty() ? "OK" : verdict.c_str());
  return verdict.empty() ? 0 : 1;
}
