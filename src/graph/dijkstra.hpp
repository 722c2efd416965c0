// Dijkstra shortest paths over a GraphView.
//
// ISP's path metric (Section IV-D) changes every iteration — repaired
// elements become "short", pruned capacity raises lengths — so lengths are
// not stored on the Graph: they come from the view's build-time metric
// (ViewConfig::length) or from a caller-owned per-edge array.  The same
// routine also serves column-generation pricing in the MCF solver
// (lengths = simplex duals).  Every overload traverses the view's flat CSR
// arrays with no per-edge indirection.  Callers that read paths to known
// targets use the `_to` variants and shortest_path, which stop once their
// targets settle; the settled prefix of Dijkstra's deterministic order is
// the full run's, so the paths read are bit-identical.  Outputs are frozen
// in tests/golden/graph_kernels.txt.
#pragma once

#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> distance;    ///< +inf when unreachable
  std::vector<EdgeId> parent_edge; ///< kInvalidEdge at source/unreachable

  bool reached(NodeId node) const;

  /// Reconstructs source -> target; std::nullopt when unreachable.
  std::optional<Path> path_to(const Graph& g, NodeId target) const;
};

/// Dijkstra from `source` over the view, using the view's edge lengths.
/// Lengths must be >= 0 and not NaN for every traversed edge
/// (std::invalid_argument at first encounter).
ShortestPathTree dijkstra(const GraphView& view, NodeId source);

/// Single-pair pricing traversal: caller-supplied per-edge-id lengths
/// (indexed by original edge id; PathLpSession refreshes them from the
/// master duals every round without rebuilding the view) and a residual
/// skip (entries <= 1e-9 are not traversed, since a cached view's arcs may
/// include zero-capacity edges), stopped once `target` settles (exact
/// distance/path for the target, see dijkstra_residual_to) — per-demand
/// pricing reads only the target's label.
ShortestPathTree dijkstra_to(const GraphView& view, NodeId source,
                             NodeId target,
                             const std::vector<double>& edge_length,
                             const std::vector<double>& edge_residual);

/// Dijkstra under the view's lengths, skipping edges whose entry in
/// `edge_residual` is <= 1e-9 (the residual-capacity loops of greedy
/// routing, successive shortest paths and ISP), stopped as soon as
/// `target` is settled.  Every node settled before the stop — in particular
/// the whole source->target parent chain — carries exactly the distances
/// and parents of the full tree (Dijkstra settles in a deterministic total
/// order), so path_to(target) is bit-identical to the unbounded search;
/// entries for unsettled nodes are not meaningful.
ShortestPathTree dijkstra_residual_to(const GraphView& view, NodeId source,
                                      NodeId target,
                                      const std::vector<double>& edge_residual);

/// dijkstra_residual_to for a target set: stops once every node of
/// `targets` has settled (duplicates and the source itself allowed; an
/// unreachable target runs the search to exhaustion).  path_to and the
/// distance of each target are bit-identical to the full tree's.
/// Demand-based centrality shares one such tree among the demands leaving a
/// common source.
ShortestPathTree dijkstra_residual_to(const GraphView& view, NodeId source,
                                      const std::vector<NodeId>& targets,
                                      const std::vector<double>& edge_residual);

/// Shortest path source -> target over the view, or nullopt.  The search
/// stops once `target` settles, so the path is the full tree's, but a
/// negative or NaN length is only detected on edges it relaxes.
std::optional<Path> shortest_path(const GraphView& view, NodeId source,
                                  NodeId target);

}  // namespace netrec::graph
