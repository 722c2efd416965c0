// Dinic maximum flow on the undirected supply graph.
//
// ISP uses s-t max flows in two places: the split-demand selection
// (decision 1, f*(i,j) on the full graph) and the prune amount
// (Theorem 3, max flow inside a bubble).  Undirected edges are modelled as
// opposite arc pairs each carrying the full edge capacity; the reported
// per-edge flow is net (opposite directions cancelled), so a flow
// decomposition into simple paths always exists.
//
// Dinic runs directly on the view's CSR arcs: an in-view edge's two arcs are
// each other's residual, and arcs outside the network (edges outside the
// bubble, capacities <= 1e-9) start at residual zero.
// Its residual, twin-arc, level, cursor and queue arrays live in a
// per-thread workspace reused across calls, so a call allocates only its
// result; the level BFS stops as soon as the sink is labelled.  The
// residual-capacity overloads let greedy routing and ISP re-run flows
// against a mutating residual array without rebuilding the view.  Flows
// are frozen in tests/golden/graph_kernels.txt.
#pragma once

#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

struct MaxflowResult {
  double value = 0.0;
  /// Signed net flow per original edge id; positive means u -> v.
  /// Edges excluded by the filter carry 0.
  std::vector<double> edge_flow;
};

/// Max flow source -> sink over the view's edges and capacities.
MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink);

/// Same network restricted to the view's edges, but with capacities read
/// from `edge_capacity` (indexed by original edge id) — the residual arrays
/// the greedy heuristics maintain between flow calls.
MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity);

/// Further restricted to edges whose endpoints both have a nonzero entry in
/// `node_ok` — ISP's bubble flows (Theorem 3) on a cached working view,
/// where the bubble's node set changes per prune attempt but the view does
/// not.  `node_ok` must have one entry per graph node.
MaxflowResult max_flow(const GraphView& view, NodeId source, NodeId sink,
                       const std::vector<double>& edge_capacity,
                       const std::vector<char>& node_ok);

/// Decomposes a net edge flow (as produced by max_flow) into simple paths
/// with positive amounts summing to the flow value.  The input flow must be
/// conserved at every node other than source/sink.
std::vector<std::pair<Path, double>> decompose_flow(
    const Graph& g, NodeId source, NodeId sink,
    const std::vector<double>& edge_flow);

}  // namespace netrec::graph
