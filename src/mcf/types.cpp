#include "mcf/types.hpp"

namespace netrec::mcf {

namespace {

/// Sums routed amounts per edge; index = EdgeId.
std::vector<double> edge_loads(const graph::Graph& g,
                               const std::vector<PathFlow>& flows) {
  std::vector<double> load(g.num_edges(), 0.0);
  for (const PathFlow& f : flows) {
    for (graph::EdgeId e : f.path.edges) {
      load[static_cast<std::size_t>(e)] += f.amount;
    }
  }
  return load;
}

}  // namespace

bool routing_is_valid(const graph::Graph& g, const std::vector<Demand>& demands,
                      const std::vector<PathFlow>& flows,
                      const graph::EdgeFilter& edge_ok,
                      const graph::EdgeWeight& capacity, double tol) {
  for (const PathFlow& f : flows) {
    if (f.amount < -tol) return false;
    if (f.demand_index < 0 ||
        f.demand_index >= static_cast<int>(demands.size())) {
      return false;
    }
    const Demand& d = demands[static_cast<std::size_t>(f.demand_index)];
    if (!f.path.connects(g, d.source, d.target)) return false;
    if (edge_ok) {
      for (graph::EdgeId e : f.path.edges) {
        if (!edge_ok(e)) return false;
      }
    }
  }
  const auto load = edge_loads(g, flows);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (load[e] > capacity(static_cast<graph::EdgeId>(e)) + tol) return false;
  }
  return true;
}

double total_demand(const std::vector<Demand>& demands) {
  double total = 0.0;
  for (const Demand& d : demands) total += d.amount;
  return total;
}

}  // namespace netrec::mcf
