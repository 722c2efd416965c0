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

#include <vector>

#include "graph/graph.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

/// Brandes betweenness over the view, under the view's edge lengths (>= 0).
/// Runs |V| Dijkstra passes: O(V * (E log V)).  A node the edge filter
/// isolates scores 0, and its pass reaches only itself.  Endpoint pairs
/// contribute to intermediate nodes only (standard definition).
std::vector<double> betweenness_centrality(const GraphView& view);

}  // namespace netrec::graph
