#include "graph/simple_paths.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "graph/dijkstra.hpp"

namespace netrec::graph {

namespace {

constexpr double kEps = 1e-9;

void dfs_paths(const GraphView& view, NodeId at, NodeId t,
               const SimplePathLimits& limits, std::vector<char>& on_path,
               Path& current, std::vector<Path>& out) {
  if (out.size() >= limits.max_paths) return;
  if (at == t) {
    out.push_back(current);
    return;
  }
  if (current.edges.size() >= limits.max_hops) return;
  const ArcId end = view.arcs_end(at);
  for (ArcId a = view.arcs_begin(at); a < end; ++a) {
    const NodeId next = view.arc_target(a);
    if (on_path[static_cast<std::size_t>(next)]) continue;
    on_path[static_cast<std::size_t>(next)] = 1;
    current.edges.push_back(view.arc_edge(a));
    dfs_paths(view, next, t, limits, on_path, current, out);
    current.edges.pop_back();
    on_path[static_cast<std::size_t>(next)] = 0;
    if (out.size() >= limits.max_paths) return;
  }
}

}  // namespace

std::vector<Path> all_simple_paths(const GraphView& view, NodeId s, NodeId t,
                                   const SimplePathLimits& limits) {
  const Graph& g = view.graph();
  g.check_node(s);
  g.check_node(t);
  std::vector<Path> out;
  if (s == t) return out;
  std::vector<char> on_path(view.num_nodes(), 0);
  on_path[static_cast<std::size_t>(s)] = 1;
  Path current;
  current.start = s;
  dfs_paths(view, s, t, limits, on_path, current, out);
  return out;
}

SuccessivePathsResult successive_shortest_paths(
    const GraphView& view, NodeId s, NodeId t, double demand,
    std::size_t max_paths, const ShortestPathTree* first_tree) {
  SuccessivePathsResult result;
  std::vector<double> residual = view.edge_capacities();
  bool first = true;
  while (result.total_capacity < demand - kEps &&
         result.paths.size() < max_paths) {
    std::optional<Path> path =
        first && first_tree
            ? first_tree->path_to(view.graph(), t)
            : dijkstra_residual_to(view, s, t, residual)
                  .path_to(view.graph(), t);
    first = false;
    if (!path) break;
    double cap = std::numeric_limits<double>::infinity();
    for (EdgeId e : path->edges) {
      cap = std::min(cap, residual[static_cast<std::size_t>(e)]);
    }
    if (cap <= kEps) break;
    // Remove the chosen path's bottleneck from every edge on it (Section
    // IV-B: "reduce the capacity of p by c(p)").
    for (EdgeId e : path->edges) residual[static_cast<std::size_t>(e)] -= cap;
    result.total_capacity += cap;
    result.capacities.push_back(cap);
    result.paths.push_back(std::move(*path));
  }
  return result;
}

}  // namespace netrec::graph
