// Incremental repair bookkeeping shared by ISP and the greedy heuristics.
//
// Matches the paper's repair list L(n): once an element enters the list it
// is treated as working for every subsequent test ("thereafter considered by
// the algorithm as if it were already repaired", Section IV-C).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace netrec::graph {
class ViewCache;
}  // namespace netrec::graph

namespace netrec::core {

class RepairState {
 public:
  explicit RepairState(const graph::Graph& g);

  /// Publishes every successful repair into `cache` (invalidate_node /
  /// invalidate_edge), so cached views over filters reading this state stay
  /// coherent without the solver sprinkling invalidation calls by hand.
  /// Pass nullptr to detach.  The cache is borrowed, not owned.
  void publish_to(graph::ViewCache* cache) { cache_ = cache; }

  /// Marks a broken node repaired; returns true if it changed state.
  bool repair_node(graph::NodeId n);
  /// Marks a broken edge repaired; returns true if it changed state.
  bool repair_edge(graph::EdgeId e);

  /// Repairs everything on a path (both elements and endpoints).
  void repair_path(const graph::Path& path);

  bool node_repaired(graph::NodeId n) const {
    return node_repaired_[static_cast<std::size_t>(n)] != 0;
  }
  bool edge_repaired(graph::EdgeId e) const {
    return edge_repaired_[static_cast<std::size_t>(e)] != 0;
  }

  /// Working-or-repaired test for nodes (the paper's V(n) membership).
  bool node_ok(graph::NodeId n) const;
  /// Edge usable: itself and both endpoints working-or-repaired (E(n)).
  bool edge_ok(graph::EdgeId e) const;

  /// Filter adapter for the graph algorithms.
  graph::EdgeFilter edge_filter() const;

  /// Repair lists in the order the decisions were made.
  const std::vector<graph::NodeId>& repaired_nodes() const {
    return repaired_node_list_;
  }
  const std::vector<graph::EdgeId>& repaired_edges() const {
    return repaired_edge_list_;
  }

  double repair_cost() const { return cost_; }
  std::size_t total_repairs() const {
    return repaired_node_list_.size() + repaired_edge_list_.size();
  }

 private:
  const graph::Graph& g_;
  graph::ViewCache* cache_ = nullptr;
  std::vector<char> node_repaired_;
  std::vector<char> edge_repaired_;
  std::vector<graph::NodeId> repaired_node_list_;
  std::vector<graph::EdgeId> repaired_edge_list_;
  double cost_ = 0.0;
};

}  // namespace netrec::core
