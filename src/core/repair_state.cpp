#include "core/repair_state.hpp"

#include "graph/view_cache.hpp"

namespace netrec::core {

RepairState::RepairState(const graph::Graph& g)
    : g_(g),
      node_repaired_(g.num_nodes(), 0),
      edge_repaired_(g.num_edges(), 0) {}

bool RepairState::repair_node(graph::NodeId n) {
  g_.check_node(n);
  if (!g_.node_broken(n) || node_repaired(n)) return false;
  node_repaired_[static_cast<std::size_t>(n)] = 1;
  repaired_node_list_.push_back(n);
  cost_ += g_.node_repair_cost(n);
  if (cache_) cache_->invalidate_node(n);
  return true;
}

bool RepairState::repair_edge(graph::EdgeId e) {
  g_.check_edge(e);
  if (!g_.edge_broken(e) || edge_repaired(e)) return false;
  edge_repaired_[static_cast<std::size_t>(e)] = 1;
  repaired_edge_list_.push_back(e);
  cost_ += g_.edge_repair_cost(e);
  if (cache_) cache_->invalidate_edge(e);
  return true;
}

void RepairState::repair_path(const graph::Path& path) {
  if (path.start != graph::kInvalidNode) repair_node(path.start);
  graph::NodeId at = path.start;
  for (graph::EdgeId e : path.edges) {
    repair_edge(e);
    at = g_.other_endpoint(e, at);
    repair_node(at);
  }
}

bool RepairState::node_ok(graph::NodeId n) const {
  return !g_.node_broken(n) || node_repaired(n);
}

bool RepairState::edge_ok(graph::EdgeId e) const {
  if (g_.edge_broken(e) && !edge_repaired(e)) return false;
  const auto [eu, ev] = g_.edge_endpoints(e);
  return node_ok(eu) && node_ok(ev);
}

graph::EdgeFilter RepairState::edge_filter() const {
  return [this](graph::EdgeId e) { return edge_ok(e); };
}

}  // namespace netrec::core
