// Breadth-first traversal utilities: residual reachability, connected
// components, diameter, and which nodes lie within a hop limit of which.
// Every routine runs on a GraphView, so the view's edge filter decides
// whether it sees the working subgraph, the full graph, or ISP's bubble
// search space — without copying the graph.
//
// hop_diameter and near_matrix share one kernel, a bit-parallel
// multi-source BFS (MS-BFS; Then et al., "The More the Merrier", VLDB
// 2015).  The nodes are taken as sources in batches of 64 consecutive
// ids, one bit of a uint64_t each.  Per node the kernel keeps three
// words — sources that have reached it (seen), reached it at the current
// level (frontier) and reach it at the next level — so one pass over the
// view's CSR arcs advances all 64 BFS by one level, and ceil(V / 64)
// traversals replace V scalar ones.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

/// Reachability over arcs whose `edge_residual` entry (indexed by original
/// edge id) is > 1e-9, on a cached view whose arcs may include drained
/// edges, for many pairs of one view: one traversal per component instead
/// of one BFS per pair.  Every in-view edge has both arcs, so the first
/// query from a source labels its whole component and later queries into
/// a labelled component cost O(1).  Each answer equals that of a BFS from
/// `source` over the positive-residual arcs.  Borrows `view` and
/// `edge_residual`.
class ResidualReach {
 public:
  ResidualReach(const GraphView& view,
                const std::vector<double>& edge_residual);

  bool reachable(NodeId source, NodeId target);

 private:
  /// Component label of node `n`, labelling its component first.
  int label_of(NodeId n);

  const GraphView& view_;
  const std::vector<double>& residual_;
  std::vector<int> label_;  ///< -1 until labelled
  std::vector<NodeId> stack_;
  int next_label_ = 0;
};

/// Component label per node (every node, isolated ones included, gets a
/// label >= 0); labels dense, in order of each component's lowest node id.
std::vector<int> connected_components(const GraphView& view);

/// Node ids of the largest component in the view.
std::vector<NodeId> giant_component(const GraphView& view);

/// Hop diameter: the largest hop distance between two nodes, -1 if some
/// node cannot reach another (a node the filter isolated included), 0 for
/// a graph with at most one node.
int hop_diameter(const GraphView& view);

/// Which sources reach which nodes within a hop limit: a V x V bit
/// matrix, ceil(V / 64) * V words (about V^2 / 8 bytes), stored
/// batch-major so each 64-source batch's words are contiguous.
class NearMatrix {
 public:
  std::size_t num_nodes() const { return num_nodes_; }
  /// Number of 64-source batches, ceil(V / 64).
  std::size_t num_batches() const { return (num_nodes_ + 63) / 64; }
  /// Bit k set iff source 64 * batch + k reaches `target` within the
  /// limit.  Bits past the last node are clear.
  std::uint64_t sources_near(std::size_t batch, NodeId target) const {
    return words_[batch * num_nodes_ + static_cast<std::size_t>(target)];
  }
  bool near(NodeId source, NodeId target) const {
    const auto s = static_cast<std::size_t>(source);
    return (sources_near(s / 64, target) >> (s % 64)) & 1u;
  }

 private:
  friend NearMatrix near_matrix(const GraphView& view, int max_hops);

  std::size_t num_nodes_ = 0;
  std::vector<std::uint64_t> words_;
};

/// near(s, t) iff the hop distance from s to t in the view lies in
/// [0, max_hops]; all clear when max_hops < 0.  Every in-view edge has both
/// arcs, so hop distance is symmetric and sources_near(b, i) is also the
/// set of targets 64 * b + k within max_hops of source i — one word per 64
/// targets.
NearMatrix near_matrix(const GraphView& view, int max_hops);

}  // namespace netrec::graph
