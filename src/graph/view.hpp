// Immutable CSR snapshot of a Graph under a filter/weight configuration —
// the one input every graph kernel takes.
//
// The usability filters and per-edge metrics of an algorithm round are
// constant for the duration of the round, so GraphView::build evaluates the
// ViewConfig callbacks once per edge, in O(V + E), into four parallel
// arrays (CSR offsets / arc targets / arc edge ids / arc weights) plus an
// edge membership bitset.  The kernels in graph/dijkstra.hpp,
// graph/traversal.hpp, graph/betweenness.hpp, graph/maxflow.hpp and
// graph/simple_paths.hpp then run on flat memory with zero per-edge
// indirection.
//
// Membership is decided by edges alone: every node of the graph is in the
// view, and an edge passing edge_ok contributes exactly two arcs, u -> v
// and v -> u, each the other's twin.  A filter that should exclude a node
// excludes its incident edges (RepairState::edge_ok and
// Graph::edge_usable already fold endpoint state into the edge verdict,
// as the paper's working graph G(n) does).  Arcs of a node appear in the
// graph's incidence order (increasing edge id), which fixes every
// floating-point tie-break downstream: distances, parents, scores and flows.
//
// Immutability / invalidation contract:
//   * A GraphView is immutable through its public interface; all accessors
//     are const and safe to share across threads without synchronisation.
//     The one mutation path is graph::ViewCache (a friend), which may patch
//     per-edge lengths/capacities in place between algorithm rounds — see
//     view_cache.hpp for the refresh-vs-rebuild rules.
//   * The view borrows the Graph (no copy).  Destroying or assigning to the
//     graph leaves the view dangling; a state mutation — flipping broken
//     flags, editing capacities or costs — leaves it semantically stale.
//     Rebuild it (or route the mutation through a ViewCache, which rebuilds
//     or refreshes for you).  Bare views are cheap (one O(V+E) pass) and
//     meant to be materialised once per algorithm round.
//   * Filter and weight callbacks are evaluated exactly once per edge at
//     build time and never retained by the view itself, so temporaries may
//     be passed freely (a ViewCache *does* retain its configs; see there).
//     Weights are evaluated only for edges passing edge_ok, so a metric may
//     assume it is consulted on usable edges only.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace netrec::graph {

/// Arc index into a GraphView's CSR arrays.
using ArcId = std::uint32_t;

/// Sentinel arc id ("no arc").
inline constexpr ArcId kInvalidArc = static_cast<ArcId>(-1);

/// Build-time configuration: which edges are in the view and what the
/// per-edge length / capacity metrics are.  Empty callbacks mean "accept
/// everything" / "length 1" / "static graph capacity".  The `{}`
/// initializers let a one-off call name only the fields it sets —
/// `GraphView::build(g, {.length = metric})` — without a
/// -Wmissing-field-initializers warning.
struct ViewConfig {
  EdgeFilter edge_ok{};
  EdgeWeight length{};
  EdgeWeight capacity{};
};

class GraphView {
 public:
  /// Flattens `g` under `config` in one O(V + E) pass.
  static GraphView build(const Graph& g, const ViewConfig& config = {});

  /// View of the working subgraph G(n): broken elements excluded, unit
  /// lengths, static capacities.
  static GraphView working(const Graph& g);

  const Graph& graph() const { return *g_; }
  std::size_t num_nodes() const { return offsets_.size() - 1; }
  /// Edge-id space of the underlying graph (filtered edges included).
  std::size_t num_edges() const { return edge_in_view_.size(); }
  std::size_t num_arcs() const { return arcs_.size(); }

  // --- CSR arc traversal --------------------------------------------------
  ArcId arcs_begin(NodeId u) const {
    return offsets_[static_cast<std::size_t>(u)];
  }
  ArcId arcs_end(NodeId u) const {
    return offsets_[static_cast<std::size_t>(u) + 1];
  }
  /// Arcs are stored as one interleaved 16-byte record (head, edge id,
  /// length) so a traversal touches a single cache line per arc; capacities
  /// (used only by the flow algorithms) live in a parallel array.
  NodeId arc_target(ArcId a) const { return arcs_[a].to; }
  EdgeId arc_edge(ArcId a) const { return arcs_[a].edge; }
  double arc_length(ArcId a) const { return arcs_[a].length; }
  double arc_capacity(ArcId a) const { return arc_capacities_[a]; }
  /// The opposite-direction arc of the same edge.
  ArcId arc_twin(ArcId a) const {
    const auto& slots = edge_arcs_[static_cast<std::size_t>(arcs_[a].edge)];
    return slots[0] == a ? slots[1] : slots[0];
  }

  // --- per-element lookups ------------------------------------------------
  /// Edge passes the edge filter (and so has both arcs).
  bool edge_in_view(EdgeId e) const {
    return edge_in_view_[static_cast<std::size_t>(e)] != 0;
  }
  double edge_length(EdgeId e) const {
    return edge_lengths_[static_cast<std::size_t>(e)];
  }
  double edge_capacity(EdgeId e) const {
    return edge_capacities_[static_cast<std::size_t>(e)];
  }
  /// Per-edge capacity array indexed by original edge id (0 for edges
  /// failing the edge filter, whose weights were never evaluated).
  const std::vector<double>& edge_capacities() const {
    return edge_capacities_;
  }

 private:
  friend class ViewCache;

  GraphView() = default;

  /// In-place metric patch for one edge (ViewCache refresh path): rewrites
  /// the flat per-edge length/capacity entries and the (up to two) arc
  /// records carrying the edge.  Must only be called for in-view edges whose
  /// filter verdict is unchanged — a membership flip needs a rebuild.
  void refresh_edge_metrics(EdgeId e, double length, double capacity);

  struct ArcRec {
    NodeId to;
    EdgeId edge;
    double length;
  };

  const Graph* g_ = nullptr;
  std::vector<ArcId> offsets_;       ///< size V+1
  std::vector<ArcRec> arcs_;         ///< interleaved per-arc record
  std::vector<double> arc_capacities_;  ///< edge capacity per arc
  std::vector<char> edge_in_view_;   ///< edge filter verdicts
  std::vector<double> edge_lengths_;    ///< per original edge id
  std::vector<double> edge_capacities_;  ///< per original edge id
  /// Arc ids of each edge's two directed arcs, kInvalidArc for edges out of
  /// the view.  Lets the ViewCache refresh path patch arcs without scanning
  /// the CSR.
  std::vector<std::array<ArcId, 2>> edge_arcs_;
};

}  // namespace netrec::graph
