// Breadth-first traversal utilities: reachability, hop distances, connected
// components, diameter.  Every routine runs on a GraphView, so the view's
// filters decide whether it sees the working subgraph, the full graph, or
// ISP's bubble search space — without copying the graph — and one view
// build is amortised over many sources (hop_diameter, all_pairs_hops).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

/// Hop distance from `source` to every node (-1 when unreachable).  The
/// source is always distance 0, even when it fails the view's node filter
/// (its outgoing arcs are preserved; see view.hpp).
std::vector<int> bfs_hops(const GraphView& view, NodeId source);

/// True iff `target` is reachable from `source` in the view.
bool reachable(const GraphView& view, NodeId source, NodeId target);

/// Reachability over arcs whose `edge_residual` entry (indexed by original
/// edge id) is > 1e-9 — the positive-capacity precheck of route_demands on
/// a cached view whose arcs may include drained edges.
bool reachable(const GraphView& view, NodeId source, NodeId target,
               const std::vector<double>& edge_residual);

/// Component label per node (-1 for nodes outside the view); labels dense.
std::vector<int> connected_components(const GraphView& view);

/// Node ids of the largest component in the view.
std::vector<NodeId> giant_component(const GraphView& view);

/// Hop diameter (max eccentricity over the view); -1 if disconnected.
int hop_diameter(const GraphView& view);

/// BFS hop distances from every source over one shared view.
std::vector<std::vector<int>> all_pairs_hops(const GraphView& view);

}  // namespace netrec::graph
