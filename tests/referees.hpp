// Plain reference implementations that the suites check the library
// against: one BFS per query for reachability and hop distance, a node
// scan for path simplicity, a row-by-row check of an LP assignment, a
// fresh LP per repaired prefix of a schedule, and demand placement from a
// shuffled list of every admissible pair.  No program needs them; each is
// the slow, obvious version of something a library kernel does faster
// (MS-BFS, ResidualReach, the simplex, the Timeline's warm measurement
// session, far_apart_demands' ranked pairs and shuffle window).
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/repair_state.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"
#include "heuristics/schedule.hpp"
#include "lp/model.hpp"
#include "mcf/routing.hpp"
#include "util/rng.hpp"

namespace netrec::graph {

/// Hop distance from `source` to every node (-1 when unreachable).  The
/// source is always distance 0, even when the view's filter isolates it.
inline std::vector<int> bfs_hops(const GraphView& view, NodeId source) {
  view.graph().check_node(source);
  std::vector<int> dist(view.num_nodes(), -1);
  dist[static_cast<std::size_t>(source)] = 0;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId at = queue.front();
    queue.pop_front();
    const int next_dist = dist[static_cast<std::size_t>(at)] + 1;
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const NodeId next = view.arc_target(a);
      if (dist[static_cast<std::size_t>(next)] != -1) continue;
      dist[static_cast<std::size_t>(next)] = next_dist;
      queue.push_back(next);
    }
  }
  return dist;
}

/// True iff `target` is reachable from `source` in the view.
inline bool reachable(const GraphView& view, NodeId source, NodeId target) {
  if (source == target) return true;
  return bfs_hops(view, source)[static_cast<std::size_t>(target)] != -1;
}

/// Reachability over arcs whose `edge_residual` entry (indexed by original
/// edge id) is > 1e-9: the one-BFS-per-pair referee of ResidualReach.
inline bool reachable(const GraphView& view, NodeId source, NodeId target,
                      const std::vector<double>& edge_residual) {
  view.graph().check_node(source);
  view.graph().check_node(target);
  if (source == target) return true;
  std::vector<char> seen(view.num_nodes(), 0);
  seen[static_cast<std::size_t>(source)] = 1;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId at = queue.front();
    queue.pop_front();
    const ArcId end = view.arcs_end(at);
    for (ArcId a = view.arcs_begin(at); a < end; ++a) {
      const auto e = static_cast<std::size_t>(view.arc_edge(a));
      if (edge_residual[e] <= 1e-9) continue;
      const NodeId next = view.arc_target(a);
      if (seen[static_cast<std::size_t>(next)]) continue;
      if (next == target) return true;
      seen[static_cast<std::size_t>(next)] = 1;
      queue.push_back(next);
    }
  }
  return false;
}

/// True if no node repeats (the paper considers acyclic paths only).
inline bool is_simple(const Graph& g, const Path& path) {
  std::unordered_set<NodeId> seen;
  for (NodeId n : path.nodes(g)) {
    if (!seen.insert(n).second) return false;
  }
  return true;
}

}  // namespace netrec::graph

namespace netrec::lp {

/// True when x satisfies all rows and bounds of `model` within `tol`.
inline bool is_feasible(const Model& model, const std::vector<double>& x,
                        double tol) {
  if (static_cast<int>(x.size()) != model.num_variables()) return false;
  std::vector<double> activity(
      static_cast<std::size_t>(model.num_constraints()), 0.0);
  for (int v = 0; v < model.num_variables(); ++v) {
    const double xv = x[static_cast<std::size_t>(v)];
    const Variable& var = model.variable(v);
    if (xv < var.lower - tol || xv > var.upper + tol) return false;
    for (const Entry& entry : var.column) {
      activity[static_cast<std::size_t>(entry.row)] += entry.value * xv;
    }
  }
  for (int r = 0; r < model.num_constraints(); ++r) {
    const Constraint& c = model.constraint(r);
    const double a = activity[static_cast<std::size_t>(r)];
    switch (c.sense) {
      case Sense::kLessEqual:
        if (a > c.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (a < c.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(a - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace netrec::lp

namespace netrec::heuristics {

/// Routed demand after each step of `schedule`: an exact max_routed_flow
/// over the working-or-repaired subgraph of every repaired prefix, except
/// the last point, which is the solution's own referee value
/// (`solution.routing.total_routed`, core::score_solution's LP on the same
/// graph).
inline std::vector<double> exact_restored_series(
    const core::RecoveryProblem& problem,
    const core::RecoverySolution& solution,
    const RecoverySchedule& schedule) {
  std::vector<double> series;
  series.reserve(schedule.steps.size());
  core::RepairState repaired(problem.graph);
  for (const ScheduleStep& step : schedule.steps) {
    if (step.is_node) {
      repaired.repair_node(step.node);
    } else {
      repaired.repair_edge(step.edge);
    }
    series.push_back(
        series.size() + 1 == schedule.steps.size()
            ? solution.routing.total_routed
            : mcf::max_routed_flow(
                  graph::GraphView::build(problem.graph,
                                          {.edge_ok = repaired.edge_filter()}),
                  problem.demands)
                  .total_routed);
  }
  return series;
}

}  // namespace netrec::heuristics

namespace netrec::scenario {

/// Every pair (i, j), i < j, at hop distance >= ceil(diameter *
/// min_distance_factor), in lexicographic order, from one BFS per source.
/// Throws when the graph is disconnected, as far_apart_demands does.
inline std::vector<std::pair<graph::NodeId, graph::NodeId>>
listed_admissible_pairs(const graph::Graph& g, double min_distance_factor) {
  const graph::GraphView view = graph::GraphView::build(g);
  std::vector<std::vector<int>> hops;
  int diameter = 0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    hops.push_back(graph::bfs_hops(view, static_cast<graph::NodeId>(i)));
    for (int d : hops.back()) {
      if (d < 0) {
        throw std::invalid_argument(
            "far_apart_demands: disconnected supply graph");
      }
      diameter = std::max(diameter, d);
    }
  }
  const int min_hops =
      static_cast<int>(std::ceil(diameter * min_distance_factor));
  std::vector<std::pair<graph::NodeId, graph::NodeId>> admissible;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    for (std::size_t j = i + 1; j < g.num_nodes(); ++j) {
      if (hops[i][j] >= min_hops) {
        admissible.emplace_back(static_cast<graph::NodeId>(i),
                                static_cast<graph::NodeId>(j));
      }
    }
  }
  return admissible;
}

/// far_apart_demands built the obvious way: the whole admissible list,
/// std::shuffle'd with `rng`, then scanned twice, first for pairs with
/// fresh endpoints and then for any pair not yet taken.  The library must
/// give the same demands and leave `rng` in the same state.
inline std::vector<mcf::Demand> listed_far_apart_demands(
    const graph::Graph& g, std::size_t pairs, double amount, util::Rng& rng,
    double min_distance_factor = 0.5) {
  auto admissible = listed_admissible_pairs(g, min_distance_factor);
  std::shuffle(admissible.begin(), admissible.end(), rng);
  std::vector<mcf::Demand> demands;
  std::vector<char> used(g.num_nodes(), 0);
  for (int pass = 0; pass < 2 && demands.size() < pairs; ++pass) {
    for (const auto& [a, b] : admissible) {
      if (demands.size() >= pairs) break;
      if (pass == 0 && (used[static_cast<std::size_t>(a)] ||
                        used[static_cast<std::size_t>(b)])) {
        continue;
      }
      const bool duplicate =
          std::any_of(demands.begin(), demands.end(), [&](const auto& d) {
            return (d.source == a && d.target == b) ||
                   (d.source == b && d.target == a);
          });
      if (duplicate) continue;
      demands.push_back(mcf::Demand{a, b, amount});
      used[static_cast<std::size_t>(a)] = 1;
      used[static_cast<std::size_t>(b)] = 1;
    }
  }
  return demands;
}

}  // namespace netrec::scenario
