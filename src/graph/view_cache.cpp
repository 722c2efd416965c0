#include "graph/view_cache.hpp"

#include <stdexcept>

namespace netrec::graph {

ViewCache::ViewCache(const Graph& g) : g_(&g) {}

ViewCache::SlotId ViewCache::add_config(ViewConfig config) {
  auto slot = std::make_unique<Slot>();
  slot->config = std::move(config);
  slot->rebuild = true;  // nothing built yet
  slot->dirty_mark.assign(g_->num_edges(), 0);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

const GraphView& ViewCache::view(SlotId slot) {
  if (slot >= slots_.size()) {
    throw std::invalid_argument("ViewCache: slot id out of range");
  }
  sync(*slots_[slot]);
  return slots_[slot]->view;
}

void ViewCache::mark_edge(Slot& slot, EdgeId e) {
  if (slot.rebuild) return;  // a rebuild re-evaluates everything anyway
  if (slot.dirty_mark[static_cast<std::size_t>(e)]) return;
  slot.dirty_mark[static_cast<std::size_t>(e)] = 1;
  slot.dirty.push_back(e);
}

void ViewCache::invalidate_edge(EdgeId e) {
  g_->check_edge(e);
  ++epoch_;
  for (auto& slot : slots_) mark_edge(*slot, e);
  for (MutationListener* l : listeners_) l->on_edge_invalidated(e);
}

void ViewCache::invalidate_node(NodeId n) {
  g_->check_node(n);
  ++epoch_;
  for (auto& slot : slots_) {
    for (EdgeId e : g_->incident_edges(n)) mark_edge(*slot, e);
  }
  for (MutationListener* l : listeners_) l->on_node_invalidated(n);
}

void ViewCache::bump_epoch() {
  ++epoch_;
  for (auto& slot : slots_) slot->rebuild = true;
  for (MutationListener* l : listeners_) l->on_epoch_bumped();
}

void ViewCache::add_listener(MutationListener* listener) {
  if (!listener) return;
  listeners_.push_back(listener);
}

void ViewCache::sync(Slot& slot) {
  // A queued dirty edge whose live filter verdict differs from the built
  // one changes arc membership: escalate to a rebuild.
  if (!slot.rebuild && !slot.dirty.empty()) {
    for (EdgeId e : slot.dirty) {
      if (slot.config.edge_ok &&
          slot.config.edge_ok(e) != slot.view.edge_in_view(e)) {
        slot.rebuild = true;
        break;
      }
    }
  }

  if (slot.rebuild) {
    slot.view = GraphView::build(*g_, slot.config);
    slot.rebuild = false;
    ++stats_.builds;
  } else if (!slot.dirty.empty()) {
    for (EdgeId e : slot.dirty) {
      // Edges outside the view keep weight 0 (never evaluated), exactly as
      // at build time.
      if (!slot.view.edge_in_view(e)) continue;
      const double length =
          slot.config.length ? slot.config.length(e) : 1.0;
      const double capacity =
          slot.config.capacity ? slot.config.capacity(e) : g_->edge_capacity(e);
      slot.view.refresh_edge_metrics(e, length, capacity);
      ++stats_.refreshes;
    }
  } else {
    ++stats_.hits;
  }

  if (!slot.dirty.empty()) {
    for (EdgeId e : slot.dirty) {
      slot.dirty_mark[static_cast<std::size_t>(e)] = 0;
    }
    slot.dirty.clear();
  }
}

}  // namespace netrec::graph
