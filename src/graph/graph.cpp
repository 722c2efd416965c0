#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netrec::graph {

std::string_view Graph::node_name(NodeId id) const {
  check_node(id);
  if (name_off_.empty()) return {};  // lazy arena: no node was ever named
  const std::size_t i = index(id);
  const std::uint32_t begin = name_off_[i];
  const std::uint32_t end = name_off_[i + 1];
  return std::string_view(name_blob_).substr(begin, end - begin);
}

NodeId Graph::find_node(std::string_view name) const {
  for (std::size_t i = 0; i < num_nodes(); ++i) {
    if (node_name(static_cast<NodeId>(i)) == name) {
      return static_cast<NodeId>(i);
    }
  }
  return kInvalidNode;
}

void Graph::set_node_broken(NodeId id, bool broken) {
  check_node(id);
  std::uint8_t& flag = node_broken_[index(id)];
  if ((flag != 0) == broken) return;
  flag = broken ? 1 : 0;
  broken_node_count_ += broken ? 1 : -1;
}

void Graph::set_edge_broken(EdgeId id, bool broken) {
  check_edge(id);
  std::uint8_t& flag = edge_broken_[index_e(id)];
  if ((flag != 0) == broken) return;
  flag = broken ? 1 : 0;
  broken_edge_count_ += broken ? 1 : -1;
}

NodeId Graph::other_endpoint(EdgeId edge_id, NodeId from) const {
  check_edge(edge_id);
  const std::size_t e = index_e(edge_id);
  if (edge_u_[e] == from) return edge_v_[e];
  if (edge_v_[e] == from) return edge_u_[e];
  throw std::invalid_argument("Graph: node " + std::to_string(from) +
                              " is not an endpoint of edge " +
                              std::to_string(edge_id));
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  // Search from the lower-degree endpoint.
  const NodeId base = degree(u) <= degree(v) ? u : v;
  const NodeId target = base == u ? v : u;
  // Binary search over the neighbour-sorted secondary index.
  const std::size_t lo = inc_off_[index(base)];
  const std::size_t hi = inc_off_[index(base) + 1];
  const NodeId* first = sorted_nbr_.data() + lo;
  const NodeId* last = sorted_nbr_.data() + hi;
  const NodeId* it = std::lower_bound(first, last, target);
  if (it != last && *it == target) {
    return sorted_edge_[lo + static_cast<std::size_t>(it - first)];
  }
  return kInvalidEdge;
}

void Graph::break_everything() {
  std::fill(node_broken_.begin(), node_broken_.end(), 1);
  std::fill(edge_broken_.begin(), edge_broken_.end(), 1);
  broken_node_count_ = num_nodes();
  broken_edge_count_ = num_edges();
}

std::vector<NodeId> Graph::broken_nodes() const {
  std::vector<NodeId> out;
  out.reserve(broken_node_count_);
  for (std::size_t i = 0; i < node_broken_.size(); ++i) {
    if (node_broken_[i] != 0) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<EdgeId> Graph::broken_edges() const {
  std::vector<EdgeId> out;
  out.reserve(broken_edge_count_);
  for (std::size_t i = 0; i < edge_broken_.size(); ++i) {
    if (edge_broken_[i] != 0) out.push_back(static_cast<EdgeId>(i));
  }
  return out;
}

void Graph::check_node(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= num_nodes()) {
    throw std::invalid_argument("Graph: node id " + std::to_string(id) +
                                " out of range");
  }
}

void Graph::check_edge(EdgeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= num_edges()) {
    throw std::invalid_argument("Graph: edge id " + std::to_string(id) +
                                " out of range");
  }
}

EdgeFilter working_edge_filter(const Graph& g) {
  return [&g](EdgeId id) { return g.edge_usable(id); };
}

}  // namespace netrec::graph
