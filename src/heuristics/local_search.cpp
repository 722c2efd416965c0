#include "heuristics/local_search.hpp"

#include <algorithm>

#include "core/repair_state.hpp"
#include "mcf/routing.hpp"
#include "util/timer.hpp"

namespace netrec::heuristics {

namespace {

/// Passes over the candidate list; each pass after the first only runs
/// when the previous one dropped an element.
constexpr std::size_t kMaxPasses = 3;

/// A repair-set element, node or edge.
struct Element {
  bool is_node;
  int id;
  double cost;
};

}  // namespace

core::RecoverySolution reduce_repairs(const core::RecoveryProblem& problem,
                                      const core::RecoverySolution& solution) {
  util::Timer timer;
  const graph::Graph& g = problem.graph;

  // Keep flags; start from the input repair set.
  std::vector<char> node_kept(g.num_nodes(), 0);
  std::vector<char> edge_kept(g.num_edges(), 0);
  for (graph::NodeId n : solution.repaired_nodes) {
    node_kept[static_cast<std::size_t>(n)] = 1;
  }
  for (graph::EdgeId e : solution.repaired_edges) {
    edge_kept[static_cast<std::size_t>(e)] = 1;
  }

  // Flat per-edge usability under the current keep flags, updated
  // incrementally when a flip changes the few edges it touches; each
  // routability probe's view build then consults an O(1) array lookup
  // instead of re-deriving brokenness per edge.
  auto edge_usable_now = [&](graph::EdgeId e) {
    if (g.edge_broken(e) && !edge_kept[static_cast<std::size_t>(e)]) {
      return false;
    }
    const auto [eu, ev] = g.edge_endpoints(e);
    if (g.node_broken(eu) && !node_kept[static_cast<std::size_t>(eu)]) {
      return false;
    }
    if (g.node_broken(ev) && !node_kept[static_cast<std::size_t>(ev)]) {
      return false;
    }
    return true;
  };
  std::vector<char> usable(g.num_edges(), 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    usable[e] = edge_usable_now(static_cast<graph::EdgeId>(e)) ? 1 : 0;
  }
  auto refresh_element = [&](const Element& el) {
    if (el.is_node) {
      for (graph::EdgeId e :
           g.incident_edges(static_cast<graph::NodeId>(el.id))) {
        usable[static_cast<std::size_t>(e)] = edge_usable_now(e) ? 1 : 0;
      }
    } else {
      const auto e = static_cast<graph::EdgeId>(el.id);
      usable[static_cast<std::size_t>(e)] = edge_usable_now(e) ? 1 : 0;
    }
  };
  auto edge_ok = [&](graph::EdgeId e) {
    return usable[static_cast<std::size_t>(e)] != 0;
  };
  auto routable = [&]() {
    return mcf::is_routable(graph::GraphView::build(g, {.edge_ok = edge_ok}),
                            problem.demands);
  };

  // Only meaningful when the input already satisfies the demand; otherwise
  // dropping repairs can only make things worse.
  const bool baseline_routable = routable();
  core::RecoverySolution reduced = solution;
  if (baseline_routable) {
    // Candidates most-expensive-first; within ties, later repairs first
    // (they are more often redundant leftovers).
    std::vector<Element> elements;
    for (auto it = solution.repaired_edges.rbegin();
         it != solution.repaired_edges.rend(); ++it) {
      elements.push_back(Element{false, *it, g.edge_repair_cost(*it)});
    }
    for (auto it = solution.repaired_nodes.rbegin();
         it != solution.repaired_nodes.rend(); ++it) {
      elements.push_back(Element{true, *it, g.node_repair_cost(*it)});
    }
    std::stable_sort(elements.begin(), elements.end(),
                     [](const Element& a, const Element& b) {
                       return a.cost > b.cost;
                     });

    for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
      bool dropped = false;
      for (const Element& el : elements) {
        auto& flag = el.is_node ? node_kept[static_cast<std::size_t>(el.id)]
                                : edge_kept[static_cast<std::size_t>(el.id)];
        if (!flag) continue;
        flag = 0;
        refresh_element(el);
        if (routable()) {
          dropped = true;
        } else {
          flag = 1;  // needed after all
          refresh_element(el);
        }
      }
      if (!dropped) break;
    }

    reduced.repaired_nodes.clear();
    reduced.repaired_edges.clear();
    // Preserve the original repair order for the surviving elements.
    for (graph::NodeId n : solution.repaired_nodes) {
      if (node_kept[static_cast<std::size_t>(n)]) {
        reduced.repaired_nodes.push_back(n);
      }
    }
    for (graph::EdgeId e : solution.repaired_edges) {
      if (edge_kept[static_cast<std::size_t>(e)]) {
        reduced.repaired_edges.push_back(e);
      }
    }
  }

  reduced.algorithm = solution.algorithm + "+LS";
  core::score_solution(problem, reduced);
  reduced.wall_seconds = solution.wall_seconds + timer.elapsed_seconds();
  return reduced;
}

}  // namespace netrec::heuristics
