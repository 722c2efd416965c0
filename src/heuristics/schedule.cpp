#include "heuristics/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/repair_state.hpp"
#include "graph/dijkstra.hpp"
#include "graph/view_cache.hpp"
#include "mcf/routing.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace netrec::heuristics {

double RecoverySchedule::restoration_auc() const {
  return util::restoration_auc(restored_series(), total_demand);
}

std::size_t RecoverySchedule::steps_to_restore(double fraction) const {
  return util::steps_to_fraction(restored_series(), total_demand, fraction);
}

std::vector<double> RecoverySchedule::restored_series() const {
  std::vector<double> series;
  series.reserve(steps.size());
  for (const ScheduleStep& step : steps) series.push_back(step.restored_after);
  return series;
}

namespace {

std::string node_name(const graph::Graph& g, graph::NodeId n) {
  return g.node_name(n).empty() ? std::to_string(n)
                                : std::string(g.node_name(n));
}

}  // namespace

ScheduleStep node_step(const graph::Graph& g, graph::NodeId n) {
  ScheduleStep step;
  step.is_node = true;
  step.node = n;
  step.label = "site " + node_name(g, n);
  return step;
}

ScheduleStep edge_step(const graph::Graph& g, graph::EdgeId e) {
  const auto [eu, ev] = g.edge_endpoints(e);
  ScheduleStep step;
  step.edge = e;
  step.label = "link " + node_name(g, eu) + " - " + node_name(g, ev);
  return step;
}

RecoverySchedule schedule_repairs(const core::RecoveryProblem& problem,
                                  const core::RecoverySolution& solution,
                                  util::ThreadPool* pool) {
  if (solution.routing.routed.size() != problem.demands.size()) {
    throw std::invalid_argument(
        "schedule_repairs: solution is not scored on this problem "
        "(core::score_solution)");
  }
  const graph::Graph& g = problem.graph;
  RecoverySchedule schedule;
  schedule.total_demand = problem.total_demand();

  // Membership of the repair set, and what has been scheduled so far.
  std::vector<char> node_in_set(g.num_nodes(), 0);
  std::vector<char> edge_in_set(g.num_edges(), 0);
  for (graph::NodeId n : solution.repaired_nodes) {
    node_in_set[static_cast<std::size_t>(n)] = 1;
  }
  for (graph::EdgeId e : solution.repaired_edges) {
    edge_in_set[static_cast<std::size_t>(e)] = 1;
  }
  core::RepairState scheduled(g);
  std::size_t remaining = solution.total_repairs();

  // Elements of the final (solution) subgraph: working plus the repair set.
  auto node_available = [&](graph::NodeId n) {
    return !g.node_broken(n) || node_in_set[static_cast<std::size_t>(n)];
  };
  auto edge_available = [&](graph::EdgeId e) {
    if (g.edge_broken(e) && !edge_in_set[static_cast<std::size_t>(e)]) {
      return false;
    }
    const auto [eu, ev] = g.edge_endpoints(e);
    return node_available(eu) && node_available(ev);
  };
  // Length = unscheduled repair work on the edge (edge + endpoint halves),
  // with a small hop term so fully-scheduled paths still rank shortest.
  auto pending_length = [&](graph::EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    double w = 1e-3;
    if (g.edge_broken(e) && !scheduled.edge_repaired(e)) w += 1.0;
    if (g.node_broken(eu) && !scheduled.node_repaired(eu)) w += 0.5;
    if (g.node_broken(ev) && !scheduled.node_repaired(ev)) w += 0.5;
    return w;
  };

  // Two cached snapshots survive the whole schedule instead of one build
  // per greedy/dijkstra call.  `available` has a schedule-independent
  // filter, so every emit is a pending-length *refresh* of the repaired
  // element's incident arcs; `scheduled` membership grows with each emit
  // and rebuilds — both driven by the RepairState publishing into the
  // cache.
  graph::ViewCache cache(g);
  graph::ViewConfig available_config;
  available_config.edge_ok = edge_available;
  available_config.length = pending_length;
  const auto available_slot = cache.add_config(std::move(available_config));
  graph::ViewConfig scheduled_config;
  scheduled_config.edge_ok = [&](graph::EdgeId e) {
    return scheduled.edge_ok(e);
  };
  const auto scheduled_slot = cache.add_config(std::move(scheduled_config));
  scheduled.publish_to(&cache);

  // Greedy routing over the scheduled view, kept until an emit changes
  // that view: a round reuses the routing its previous emit scored.
  std::optional<mcf::RoutingResult> greedy;
  auto greedy_routing = [&]() -> const mcf::RoutingResult& {
    if (!greedy) {
      greedy =
          mcf::greedy_route(cache.view(scheduled_slot), problem.demands, pool);
    }
    return *greedy;
  };

  auto emit = [&](bool is_node, graph::NodeId n, graph::EdgeId e) {
    const bool changed =
        is_node ? scheduled.repair_node(n) : scheduled.repair_edge(e);
    if (!changed) return;
    greedy.reset();
    --remaining;
    ScheduleStep step = is_node ? node_step(g, n) : edge_step(g, e);
    // The step that completes the repair set takes the referee's value
    // below, so it is not scored here.
    if (remaining > 0) step.restored_after = greedy_routing().total_routed;
    schedule.steps.push_back(std::move(step));
  };

  // Route-oriented greedy: repeatedly complete the route with the best
  // demand-per-remaining-repair ratio, so service restoration front-loads.
  std::size_t guard = 0;
  std::vector<std::optional<graph::Path>> paths(problem.demands.size());
  while (remaining > 0 && guard++ < solution.total_repairs() + 8) {
    const std::vector<double> routed = greedy_routing().routed;
    auto deficit_of = [&](std::size_t h) {
      const auto& d = problem.demands[h];
      return d.source == d.target ? 0.0 : d.amount - routed[h];
    };
    // Each unsatisfied demand's route on the synced `available` view, one
    // slot per demand, fanned out on the pool.
    const graph::GraphView& available = cache.view(available_slot);
    util::ThreadPool::for_each(pool, paths.size(), [&](std::size_t h) {
      const auto& d = problem.demands[h];
      paths[h] = deficit_of(h) <= 1e-9
                     ? std::nullopt
                     : graph::shortest_path(available, d.source, d.target);
    });
    // Pick the most valuable unsatisfied demand per unit of pending work,
    // serially in demand order.
    int best_demand = -1;
    double best_ratio = -1.0;
    graph::Path best_path;
    for (std::size_t h = 0; h < problem.demands.size(); ++h) {
      const double deficit = deficit_of(h);
      auto& path = paths[h];
      if (!path) continue;
      const double pending = path->length(pending_length);
      const double ratio = deficit / (1.0 + pending);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_demand = static_cast<int>(h);
        best_path = std::move(*path);
      }
    }
    if (best_demand < 0) break;  // every demand satisfied or unreachable

    // Schedule the chosen route's pending elements in travel order.
    graph::NodeId at = best_path.start;
    emit(true, at, graph::kInvalidEdge);
    for (graph::EdgeId e : best_path.edges) {
      emit(false, graph::kInvalidNode, e);
      at = g.other_endpoint(e, at);
      emit(true, at, graph::kInvalidEdge);
    }
  }

  // Leftovers (capacity relief repairs not on any single route): cheapest
  // first, then original order.
  struct Leftover {
    bool is_node;
    int id;
    double cost;
  };
  std::vector<Leftover> leftovers;
  for (graph::NodeId n : solution.repaired_nodes) {
    if (!scheduled.node_repaired(n)) {
      leftovers.push_back({true, n, g.node_repair_cost(n)});
    }
  }
  for (graph::EdgeId e : solution.repaired_edges) {
    if (!scheduled.edge_repaired(e)) {
      leftovers.push_back({false, e, g.edge_repair_cost(e)});
    }
  }
  std::stable_sort(leftovers.begin(), leftovers.end(),
                   [](const Leftover& a, const Leftover& b) {
                     return a.cost < b.cost;
                   });
  for (const Leftover& l : leftovers) {
    if (l.is_node) {
      emit(true, static_cast<graph::NodeId>(l.id), graph::kInvalidEdge);
    } else {
      emit(false, graph::kInvalidNode, static_cast<graph::EdgeId>(l.id));
    }
  }

  // The final point is the solution's referee routing: score_solution ran
  // the same exact LP on the same repaired graph, so the schedule's endpoint
  // agrees with the solution's satisfaction.
  if (!schedule.steps.empty()) {
    schedule.steps.back().restored_after = solution.routing.total_routed;
  }
  return schedule;
}

}  // namespace netrec::heuristics
