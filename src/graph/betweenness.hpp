// Classic betweenness centrality (Brandes' algorithm, weighted variant).
//
// The paper motivates its demand-based centrality against "previous
// definitions of node centrality" (Freeman betweenness among them, refs
// [16], [13]).  This module provides that classic metric so the ablation
// bench can quantify what the demand-aware variant actually buys: Brandes
// scores nodes by shortest-path participation over *all* vertex pairs,
// ignoring both demand endpoints and capacities.
//
// Brandes runs |V| Dijkstra passes over the CSR GraphView's flat arrays.
// Scores are frozen in tests/golden/graph_kernels.txt.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::graph {

/// Brandes betweenness over the view, under the view's edge lengths (>= 0).
/// Runs |V| Dijkstra passes: O(V * (E log V)).  Nodes outside the view
/// score 0 and contribute no source pass.  Endpoint pairs contribute to
/// intermediate nodes only (standard definition).
std::vector<double> betweenness_centrality(const GraphView& view);

/// Parallel Brandes: the |V| independent source passes fan out on `pool`
/// (nullptr or a single worker falls back to the serial loop).  Each pass
/// accumulates its dependency vector into a private buffer; buffers merge
/// on the calling thread in fixed increasing-source order, and within one
/// source every touched node is updated exactly once — so the merged
/// floating-point additions are the serial kernel's additions in the serial
/// kernel's order, and the result is bit-identical to
/// betweenness_centrality(view) at any thread count.
///
/// `source_limit` restricts the passes to sources [0, source_limit) — the
/// pivot-style partial accumulation for graphs too large for all |V|
/// passes; 0 means all nodes.
std::vector<double> betweenness_centrality(const GraphView& view,
                                           util::ThreadPool* pool,
                                           std::size_t source_limit = 0);

}  // namespace netrec::graph
