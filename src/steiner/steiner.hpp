// Exact node-and-edge-weighted Steiner trees and forests (Dreyfus-Wagner).
//
// Theorem 1 reduces Steiner Forest to MinR; the reverse direction is used
// computationally: when every demand fits on a single path (sum of demands
// <= minimum usable capacity), MinR *is* the node-weighted Steiner Forest on
// the broken-cost metric, and Dreyfus-Wagner solves it exactly — that is how
// the Fig. 7 (Erdős–Rényi, connectivity-only) OPT curve is produced without
// a commercial MILP solver.
//
// One DP over all 2t terminals prices every terminal subset, so the forest
// layer (partition DP over demand pairs) reads group costs from the same
// table.  Complexity O(3^t n + 2^t m log n), so it refuses (solved = false)
// more than 16 distinct terminals.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace netrec::steiner {

using NodeCost = std::function<double(graph::NodeId)>;

struct SteinerForestResult {
  bool solved = false;  ///< false if terminals disconnected or too many
  double cost = 0.0;    ///< total edge + node cost of the forest
  std::vector<graph::EdgeId> edges;
  std::vector<graph::NodeId> nodes;  ///< all nodes touched by the forest
};

/// Minimum-cost forest connecting each pair; optimises over all partitions
/// of the pairs into connected groups (Bell-number many, read from one DP).
/// Cost = sum of edge_cost over forest edges + sum of node_cost over forest
/// nodes (terminals included).  Star pairs {(r, t1), (r, t2), ...} give the
/// Steiner tree spanning r, t1, t2, ...
SteinerForestResult steiner_forest(
    const graph::Graph& g,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& pairs,
    const graph::EdgeWeight& edge_cost, const NodeCost& node_cost,
    const graph::EdgeFilter& edge_ok = {});

}  // namespace netrec::steiner
