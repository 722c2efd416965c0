#include "heuristics/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "core/repair_state.hpp"
#include "graph/maxflow.hpp"
#include "graph/simple_paths.hpp"
#include "graph/view.hpp"
#include "mcf/routing.hpp"
#include "util/timer.hpp"

namespace netrec::heuristics {

namespace {
constexpr double kEps = 1e-9;

void finish(const core::RecoveryProblem& problem, core::RepairState& state,
            core::RecoverySolution& solution, const util::Timer& timer) {
  solution.repaired_nodes = state.repaired_nodes();
  solution.repaired_edges = state.repaired_edges();
  core::score_solution(problem, solution);
  solution.wall_seconds = timer.elapsed_seconds();
}

}  // namespace

core::RecoverySolution solve_all(const core::RecoveryProblem& problem) {
  util::Timer timer;
  core::RecoverySolution solution;
  solution.algorithm = "ALL";
  core::RepairState state(problem.graph);
  for (graph::NodeId n : problem.graph.broken_nodes()) state.repair_node(n);
  for (graph::EdgeId e : problem.graph.broken_edges()) state.repair_edge(e);
  finish(problem, state, solution, timer);
  return solution;
}

core::RecoverySolution solve_srt(const core::RecoveryProblem& problem,
                                 const mcf::PathLpOptions& lp) {
  (void)lp;
  util::Timer timer;
  core::RecoverySolution solution;
  solution.algorithm = "SRT";
  const graph::Graph& g = problem.graph;
  core::RepairState state(g);

  // Demands in decreasing order of flow requirement.
  std::vector<std::size_t> order(problem.demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return problem.demands[a].amount > problem.demands[b].amount;
  });

  // One full-graph snapshot (hop lengths, static capacities) serves every
  // demand's successive-shortest-path collection.
  const graph::GraphView view = graph::GraphView::build(g);
  for (std::size_t idx : order) {
    const mcf::Demand& d = problem.demands[idx];
    if (d.amount <= kEps || d.source == d.target) continue;
    // S_i: first shortest paths whose combined capacity covers d_i,
    // independently of other demands (full graph, static capacities).
    const auto set =
        graph::successive_shortest_paths(view, d.source, d.target, d.amount);
    for (const auto& path : set.paths) state.repair_path(path);
  }
  finish(problem, state, solution, timer);
  return solution;
}

namespace {

struct RankedPath {
  std::size_t demand;
  graph::Path path;
  double weight;
};

/// P(H,G) with the knapsack weights cost(p)/capacity(p); cost counts the
/// repair cost of broken elements on the path, capacity is the static
/// bottleneck.  Zero-cost (already working) paths sort first.
std::vector<RankedPath> build_path_pool(const core::RecoveryProblem& problem,
                                        const GreedyOptions& options) {
  const graph::Graph& g = problem.graph;
  graph::SimplePathLimits limits;
  limits.max_paths = options.max_paths_per_pair;
  limits.max_hops = options.max_hops;
  const auto cap = [&g](graph::EdgeId e) { return g.edge_capacity(e); };
  // The pool enumerates the *full* graph (broken elements included); one
  // snapshot serves every demand pair's DFS.
  const graph::GraphView view = graph::GraphView::build(g);

  std::vector<RankedPath> pool;
  for (std::size_t h = 0; h < problem.demands.size(); ++h) {
    const mcf::Demand& d = problem.demands[h];
    if (d.amount <= kEps || d.source == d.target) continue;
    for (auto& p : graph::all_simple_paths(view, d.source, d.target, limits)) {
      double cost = 0.0;
      std::vector<graph::NodeId> nodes = p.nodes(g);
      for (graph::NodeId n : nodes) {
        if (g.node_broken(n)) cost += g.node_repair_cost(n);
      }
      for (graph::EdgeId e : p.edges) {
        if (g.edge_broken(e)) cost += g.edge_repair_cost(e);
      }
      const double capacity = p.capacity(cap);
      if (capacity <= kEps) continue;
      pool.push_back(RankedPath{h, std::move(p), cost / capacity});
    }
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.weight < b.weight;
                   });
  return pool;
}

}  // namespace

core::RecoverySolution solve_grd_com(const core::RecoveryProblem& problem,
                                     const GreedyOptions& options) {
  util::Timer timer;
  core::RecoverySolution solution;
  solution.algorithm = "GRD-COM";
  const graph::Graph& g = problem.graph;
  core::RepairState state(g);

  auto pool = build_path_pool(problem, options);
  std::vector<double> remaining(problem.demands.size());
  for (std::size_t h = 0; h < problem.demands.size(); ++h) {
    remaining[h] = problem.demands[h].amount;
  }
  std::vector<double> residual(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    residual[e] = g.edge_capacity(static_cast<graph::EdgeId>(e));
  }
  auto residual_view = [&](graph::EdgeId e) {
    return residual[static_cast<std::size_t>(e)];
  };
  auto total_remaining = [&]() {
    return std::accumulate(remaining.begin(), remaining.end(), 0.0);
  };
  // Snapshot of the working-or-repaired subgraph; rebuilt after each repair
  // (state changes only there), while the residual capacities mutate freely
  // between the per-demand flow calls.
  graph::ViewConfig working_config;
  working_config.edge_ok = [&state](graph::EdgeId e) {
    return state.edge_ok(e);
  };
  graph::GraphView working_view = graph::GraphView::build(g, working_config);
  // Routes as much of demand k as possible on the current repaired network.
  auto route_max = [&](std::size_t k) {
    if (remaining[k] <= kEps) return;
    const mcf::Demand& d = problem.demands[k];
    const auto flow =
        graph::max_flow(working_view, d.source, d.target, residual);
    double assign = std::min(flow.value, remaining[k]);
    if (assign <= kEps) return;
    for (auto& [path, amount] :
         graph::decompose_flow(g, d.source, d.target, flow.edge_flow)) {
      if (assign <= kEps) break;
      const double take = std::min(amount, assign);
      for (graph::EdgeId e : path.edges) {
        residual[static_cast<std::size_t>(e)] =
            std::max(0.0, residual[static_cast<std::size_t>(e)] - take);
      }
      remaining[k] -= take;
      assign -= take;
    }
  };

  for (const RankedPath& ranked : pool) {
    if (total_remaining() <= kEps) break;
    if (remaining[ranked.demand] <= kEps) continue;
    // Repair the path, then commit the demand it was enumerated for.
    state.repair_path(ranked.path);
    working_view = graph::GraphView::build(g, working_config);
    const double capacity = ranked.path.capacity(residual_view);
    const double assign = std::min(remaining[ranked.demand], capacity);
    if (assign > kEps) {
      for (graph::EdgeId e : ranked.path.edges) {
        residual[static_cast<std::size_t>(e)] -= assign;
      }
      remaining[ranked.demand] -= assign;
    }
    // Opportunistically route every other demand on the repaired network.
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      if (k != ranked.demand) route_max(k);
    }
  }
  finish(problem, state, solution, timer);
  return solution;
}

core::RecoverySolution solve_grd_nc(const core::RecoveryProblem& problem,
                                    const GreedyOptions& options) {
  util::Timer timer;
  core::RecoverySolution solution;
  solution.algorithm = "GRD-NC";
  const graph::Graph& g = problem.graph;
  core::RepairState state(g);

  auto pool = build_path_pool(problem, options);
  // Paths that change nothing (no new repairs) cannot change the routability
  // verdict, so the exact test only runs after an effective repair; that
  // bounds LP calls by the number of broken elements, not the pool size.
  auto adds_repair = [&](const graph::Path& p) {
    for (graph::EdgeId e : p.edges) {
      if (g.edge_broken(e) && !state.edge_repaired(e)) return true;
    }
    for (graph::NodeId n : p.nodes(g)) {
      if (g.node_broken(n) && !state.node_repaired(n)) return true;
    }
    return false;
  };
  // One view of the working-or-repaired subgraph per probe.
  auto routable_now = [&]() {
    return mcf::is_routable(
        graph::GraphView::build(g, {.edge_ok = state.edge_filter()}),
        problem.demands, options.lp);
  };
  bool routable = routable_now();
  for (const RankedPath& ranked : pool) {
    if (routable) break;
    if (!adds_repair(ranked.path)) continue;
    state.repair_path(ranked.path);
    routable = routable_now();
  }
  finish(problem, state, solution, timer);
  return solution;
}

}  // namespace netrec::heuristics
