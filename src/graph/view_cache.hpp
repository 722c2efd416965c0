// Mutation-aware GraphView reuse: an epoch-based cache of view
// configurations over one Graph.
//
// Every graph kernel runs on a GraphView, but a consumer that *mutates*
// shared state mid-algorithm (ISP's residual_ / RepairState bookkeeping, the
// repair scheduler's emit loop) would otherwise rebuild an O(V + E)
// snapshot per kernel call.  ViewCache closes that gap: the consumer
// registers each view
// configuration once, publishes its mutations through three explicit hooks,
// and every view() call returns an up-to-date snapshot that was either
// served unchanged (hit), patched edge-by-edge (refresh) or — only when a
// filter verdict actually flipped — rebuilt from scratch.
//
// Invalidation contract (what mutations invalidate what):
//   * invalidate_edge(e) — a property of edge e changed (residual capacity
//     consumed, its broken flag repaired, a dynamic-metric input touched).
//     The edge is queued dirty in every slot; on the slot's next view() the
//     live edge filter is re-evaluated for e:
//       - verdict unchanged  -> REFRESH: the length/capacity callbacks are
//         re-evaluated for e and patched into the flat per-edge arrays and
//         the two arc records in place — O(dirty) total, no allocation.
//       - verdict flipped    -> REBUILD: e's arcs must appear or vanish, so
//         the CSR layout is stale; one O(V + E) build.
//     Residual-weight-only changes therefore stay refreshes for every slot
//     whose filter ignores residuals, which is why ISP keeps the residual
//     test *out* of its cached filters and in the algorithms' per-arc
//     residual skip instead.
//   * invalidate_node(n) — a property of node n changed (typically its
//     broken flag repaired).  Equivalent to invalidate_edge on every edge
//     incident to n: their filter verdicts and weights may all depend on n,
//     and node state reaches a view only through them.
//   * bump_epoch() — any element state may have changed (a wholesale state
//     swap such as a Timeline revival); every slot rebuilds on next use.
//     Topology itself never changes: a Graph's node and edge sets are fixed
//     when graph::Builder makes it.
//
// Epochs: every published mutation advances epoch().  Consumers that hold
// derived data (not the view itself) can compare epochs to decide
// staleness.
//
// Lifetime rules:
//   * Unlike GraphView::build, the cache RETAINS the ViewConfig callbacks
//     and re-evaluates them on every refresh/rebuild.  They must stay valid
//     for the cache's lifetime and read the *live* mutable state (that is
//     the point).
//   * view() returns a reference that stays address-stable for the cache's
//     lifetime, but its contents sync on each view() call; take a by-value
//     GraphView copy if a frozen snapshot is needed across mutations.
//   * Not thread-safe: one cache belongs to one solver loop.  The returned
//     views are safe to read concurrently between mutations, like any
//     GraphView.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/view.hpp"

namespace netrec::graph {

/// Receiver side of the ViewCache's mutation fan-out: consumers that hold
/// *derived* state keyed on graph elements (not a view itself — e.g. the
/// path-LP column pools in mcf::PathLpSession) register with add_listener
/// and get every published mutation forwarded verbatim, so one publisher
/// call (RepairState::publish_to, ISP's consume_residual) keeps cached
/// views and derived pools coherent alike.  Callbacks fire synchronously
/// inside the invalidate_*/bump_epoch call, before it returns; they must
/// not mutate the cache re-entrantly.
class MutationListener {
 public:
  virtual ~MutationListener() = default;
  /// A property of edge `e` changed (residual drained, broken flag
  /// repaired, a metric input touched).
  virtual void on_edge_invalidated(EdgeId e) = 0;
  /// A property of node `n` changed (typically repaired); implies every
  /// incident edge may have changed.
  virtual void on_node_invalidated(NodeId n) = 0;
  /// Anything may have changed; drop all derived state.
  virtual void on_epoch_bumped() = 0;
};

class ViewCache {
 public:
  /// Handle to a registered configuration (dense, starts at 0).
  using SlotId = std::size_t;

  explicit ViewCache(const Graph& g);

  /// Registers a configuration; the callbacks are retained (see header).
  /// Building is lazy — a slot that is never viewed never pays.
  SlotId add_config(ViewConfig config);

  /// The up-to-date view of a slot: synchronises (hit / refresh / rebuild)
  /// and returns an address-stable reference.
  const GraphView& view(SlotId slot);

  // --- mutation hooks ------------------------------------------------------

  void invalidate_edge(EdgeId e);
  void invalidate_node(NodeId n);
  void bump_epoch();

  /// Registers a mutation listener (borrowed, not owned; it must outlive
  /// every later mutation hook call).  Listeners are notified after the
  /// cache's own slots are marked, in registration order.
  void add_listener(MutationListener* listener);

  /// Monotone counter of published mutations.
  std::uint64_t epoch() const { return epoch_; }

  /// Cache effectiveness counters (cumulative).
  struct Stats {
    std::size_t builds = 0;     ///< full O(V+E) view (re)builds
    std::size_t refreshes = 0;  ///< edges patched in place
    std::size_t hits = 0;       ///< view() calls served with no work
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    ViewConfig config;
    GraphView view;          ///< empty until first sync
    bool rebuild = false;    ///< a filter verdict (possibly) flipped
    std::vector<EdgeId> dirty;      ///< queued edges, deduplicated
    std::vector<char> dirty_mark;   ///< membership bitmap for `dirty`
  };

  void mark_edge(Slot& slot, EdgeId e);
  void sync(Slot& slot);

  const Graph* g_;
  /// unique_ptr for address stability of the contained GraphViews.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<MutationListener*> listeners_;  ///< borrowed, fan-out targets
  std::uint64_t epoch_ = 0;
  Stats stats_;
};

}  // namespace netrec::graph
