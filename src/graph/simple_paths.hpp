// Bounded enumeration of simple paths, and successive-shortest-path sets.
//
// The greedy heuristics (Section VI-C) need "the set P(H,G) of all simple
// paths between the demand pairs".  That set is exponential, so — exactly as
// the paper concedes ("these heuristics can only be adopted if paths are
// pre-computed offline", and they are skipped on large topologies) — the
// enumeration takes hard limits on path count and hop length.
//
// successive_shortest_paths implements the paper's P̂*(i,j) estimate
// (Section IV-B): repeatedly take the shortest path, then remove its
// bottleneck capacity from the residual view, until accumulated path
// capacity covers the demand.
//
// Both run on a GraphView (ISP recomputes P̂* for every demand every
// iteration): build the view once per round and enumerate per demand pair.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/view.hpp"

namespace netrec::graph {

struct ShortestPathTree;  // graph/dijkstra.hpp

struct SimplePathLimits {
  std::size_t max_paths = 10'000;  ///< stop after this many paths
  std::size_t max_hops = 32;       ///< skip longer paths
};

struct SuccessivePathsResult {
  std::vector<Path> paths;
  /// Residual capacity of each path at the time it was selected; the
  /// centrality share c(p) of eq. (3) uses exactly these values.
  std::vector<double> capacities;
  /// Sum of `capacities`; >= demand iff the demand is coverable.
  double total_capacity = 0.0;
};

/// All simple paths s -> t in the view (DFS over the CSR arcs), subject to
/// limits.  Emitted in DFS (adjacency) order.
std::vector<Path> all_simple_paths(const GraphView& view, NodeId s, NodeId t,
                                   const SimplePathLimits& limits = {});

/// P̂*(s,t) over the view: shortest paths under the view's lengths collected
/// until their combined capacity (from the view's capacities) reaches
/// `demand`, reducing each chosen path's bottleneck from an internal
/// residual copy between iterations.  Stops early when s and t disconnect;
/// `max_paths` guards pathological instances.  Every Dijkstra stops once
/// `t` settles, which selects the full runs' paths bit for bit (the settle
/// prefix up to the target is the same).  When `first_tree` is non-null it
/// must be a shortest-path tree from `s` over the view's untouched
/// capacities, with `t` settled — exactly what the first round computes —
/// and that round reads it instead of running its own Dijkstra
/// (demand-based centrality shares one tree across demands with a common
/// source).
SuccessivePathsResult successive_shortest_paths(
    const GraphView& view, NodeId s, NodeId t, double demand,
    std::size_t max_paths = 64, const ShortestPathTree* first_tree = nullptr);

}  // namespace netrec::graph
