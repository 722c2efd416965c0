// Path representation shared by routing, centrality and the heuristics.
//
// A path is an ordered edge list plus its start node; node order is derived.
// Capacity(p) = min edge capacity (paper Section IV-B); length is computed
// against a caller-supplied metric because ISP's metric is dynamic (IV-D).
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace netrec::graph {

struct Path {
  NodeId start = kInvalidNode;
  std::vector<EdgeId> edges;

  bool empty() const { return edges.empty(); }

  /// End node; equals start for an empty path.
  NodeId end(const Graph& g) const;

  /// Ordered node sequence start..end (edges.size()+1 entries).
  std::vector<NodeId> nodes(const Graph& g) const;

  /// Bottleneck capacity with a caller-supplied capacity view (residual
  /// capacities differ from the static ones during ISP).  Empty path -> +inf.
  double capacity(const EdgeWeight& edge_capacity) const;

  /// Sum of metric over edges.
  double length(const EdgeWeight& edge_length) const;

  /// True if the path actually connects `from` to `to` in g.
  bool connects(const Graph& g, NodeId from, NodeId to) const;

  /// Human-readable "a - b - c" node chain for logs and examples.
  std::string to_string(const Graph& g) const;
};

}  // namespace netrec::graph
