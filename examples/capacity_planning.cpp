// Capacity planning with the MinR machinery (paper Section III, footnote 1):
// the same model that chooses repairs can choose *new* links to deploy —
// candidate links enter the supply graph as "broken" elements whose repair
// cost is the installation cost.
//
// Scenario: the Bell-Canada-like backbone is intact, but planners must
// provision for a demand surge between the Prairies and the Atlantic that
// the current network cannot carry.  Candidate express links are priced;
// OPT (and ISP, for comparison) pick which to build.
//
//   $ ./capacity_planning [--surge 60]
#include <cstdio>
#include <string>

#include "netrec.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace netrec;

  util::Flags flags;
  flags.define("surge", "100", "units of surge demand Winnipeg <-> Halifax");
  flags.define("opt-seconds", "10", "MILP budget");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage(argv[0]).c_str(), stdout);
    return 0;
  }

  const graph::Graph base =
      topology::make_topology({topology::BellCanadaOptions{}});
  const auto winnipeg = base.find_node("Winnipeg");
  const auto halifax = base.find_node("Halifax");
  const auto toronto = base.find_node("Toronto");
  const auto montreal = base.find_node("Montreal");
  const auto quebec = base.find_node("QuebecCity");
  const auto thunderbay = base.find_node("ThunderBay");

  // Candidate express links: broken=true means "not built yet"; the repair
  // cost is the build cost.  MinR decides which subset to erect.
  struct Candidate {
    graph::NodeId u, v;
    double capacity, build_cost;
  };
  const Candidate candidates[] = {
      {winnipeg, toronto, 40.0, 6.0},   // long-haul express
      {thunderbay, montreal, 40.0, 7.0},
      {toronto, quebec, 40.0, 4.0},
      {montreal, halifax, 40.0, 5.0},
      {quebec, halifax, 40.0, 3.0},
  };

  // The backbone's columns plus the candidate links, as one topology.
  graph::Builder builder;
  builder.adopt_nodes(base.node_xs(), base.node_ys(), base.node_repair_costs(),
                      base.node_broken_flags(), base.name_blob(),
                      base.name_offsets());
  builder.adopt_edges(base.edge_sources(), base.edge_targets(),
                      base.edge_capacities(), base.edge_repair_costs(),
                      base.edge_broken_flags());
  for (const Candidate& c : candidates) {
    builder.add_edge(c.u, c.v, c.capacity, c.build_cost);
  }
  core::RecoveryProblem problem;
  problem.graph = builder.finalize();
  graph::Graph& g = problem.graph;

  std::printf("candidate builds:\n");
  auto candidate_edge = static_cast<graph::EdgeId>(base.num_edges());
  for (const Candidate& c : candidates) {
    g.set_edge_broken(candidate_edge++, true);  // "repaired" = built
    std::printf("  %-12s - %-12s cap %.0f, cost %.0f\n",
                std::string(g.node_name(c.u)).c_str(),
                std::string(g.node_name(c.v)).c_str(),
                c.capacity, c.build_cost);
  }

  const double surge = flags.get_double("surge");
  problem.demands.push_back(mcf::Demand{winnipeg, halifax, surge});
  std::printf("\nsurge demand: Winnipeg <-> Halifax, %.0f units\n", surge);

  const auto baseline =
      mcf::max_routed_flow(graph::GraphView::working(g), problem.demands);
  std::printf("existing network carries %.0f / %.0f units\n",
              baseline.total_routed, surge);
  if (baseline.fully_routed) {
    std::printf("no build needed.\n");
    return 0;
  }

  heuristics::OptOptions oo;
  oo.time_limit_seconds = flags.get_double("opt-seconds");
  const auto opt = heuristics::solve_opt(problem, oo);
  std::printf("\nbuild plan (%s, %s): cost %.0f\n", opt.engine,
              opt.proven_optimal ? "proven optimal" : "best found",
              opt.solution.repair_cost);
  for (graph::EdgeId e : opt.solution.repaired_edges) {
    std::printf("  build %-12s - %-12s\n", std::string(g.node_name(g.edge_u(e))).c_str(),
                std::string(g.node_name(g.edge_v(e))).c_str());
  }
  std::printf("surge carried after build: %.1f%%\n",
              opt.solution.satisfied_fraction * 100.0);

  const auto isp = core::IspSolver(problem).solve();
  std::printf("\n(for comparison, ISP would build at cost %.0f "
              "with %.1f%% carried)\n",
              isp.repair_cost, isp.satisfied_fraction * 100.0);
  return 0;
}
