// The bubble test of ISP's prune step (paper Definition 2, Theorem 3).
//
// A bubble of demand s -> t is a node set S of the working graph G(n) that
// holds s and t but no other demand endpoint, and where every full-graph
// edge at an interior node (a member other than s and t) stays inside S.
// Flow routed inside a bubble uses capacity no other demand can reach, so
// ISP may satisfy the demand there without repairing anything.
//
// find_bubble grows S from s by BFS over working arcs with residual
// capacity, never entering another demand's endpoint (a wall) and never
// expanding t, then checks the boundary.  Its cost is bounded by the
// bubble, not by the graph:
//   * early leak exit: when the BFS expands an interior node that has a
//     full-graph neighbour which can never join S — a wall, or a broken
//     node not on the repair list — the boundary check would reject S, so
//     the test fails at that node;
//   * the workspace's membership mask is reset through the list of the
//     last call's members, and the rest of the boundary check (neighbours
//     cut off by a drained or broken edge, which may still join S by
//     another route) visits the members only.
// The verdict, and on success the member set, are those of a full BFS
// followed by a boundary scan over every node.
#pragma once

#include <vector>

#include "core/repair_state.hpp"
#include "graph/view.hpp"

namespace netrec::core {

/// Scratch of the bubble test, sized once per graph and reused across
/// calls; each call clears only what the previous one marked.
class BubbleWorkspace {
 public:
  explicit BubbleWorkspace(std::size_t num_nodes) : in_bubble_(num_nodes, 0) {}

  /// Membership mask of the bubble (one entry per graph node); valid after
  /// find_bubble returned true, until the next call.
  const std::vector<char>& in_bubble() const { return in_bubble_; }

 private:
  friend bool find_bubble(const graph::GraphView&, const RepairState&,
                          const std::vector<double>&, const std::vector<char>&,
                          graph::NodeId, graph::NodeId, bool,
                          BubbleWorkspace&);

  std::vector<char> in_bubble_;
  std::vector<graph::NodeId> members_;  ///< BFS order; doubles as the queue
};

/// Definition-2 test for demand s -> t.  `working` is the view of G(n)
/// under `state` (its arcs are the working edges); an arc is usable iff
/// its edge has residual > 1e-9, and a drained edge is not traversed but
/// still counts as an edge leaving S.  `endpoint` marks (nonzero) every
/// endpoint of every remaining demand; all but s and t are walls.  With
/// `check_boundary` false — ISP's single-demand case, where no other demand
/// can conflict — only reachability of t is tested.  Returns true iff S
/// exists; ws.in_bubble() then holds it.
bool find_bubble(const graph::GraphView& working, const RepairState& state,
                 const std::vector<double>& residual,
                 const std::vector<char>& endpoint, graph::NodeId s,
                 graph::NodeId t, bool check_boundary, BubbleWorkspace& ws);

}  // namespace netrec::core
