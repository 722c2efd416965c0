#include "graph/builder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace netrec::graph {

void Builder::reserve(std::size_t nodes, std::size_t edges) {
  g_.node_x_.reserve(nodes);
  g_.node_y_.reserve(nodes);
  g_.node_repair_cost_.reserve(nodes);
  g_.node_broken_.reserve(nodes);
  g_.edge_u_.reserve(edges);
  g_.edge_v_.reserve(edges);
  g_.edge_capacity_.reserve(edges);
  g_.edge_repair_cost_.reserve(edges);
  g_.edge_broken_.reserve(edges);
}

void Builder::append_name(std::string_view name) {
  if (g_.name_off_.empty()) {
    if (name.empty()) return;  // stay lazy while everything is unnamed
    // First named node: materialise empty slices for every prior node.  The
    // node being named is already pushed, so node count is V_prior + 1 and
    // assign() writes exactly the V_prior + 1 slice starts (all zero); the
    // push below adds the new name's end boundary -> V + 1 offsets total.
    g_.name_off_.assign(g_.num_nodes(), 0);
  }
  g_.name_blob_.append(name.data(), name.size());
  if (g_.name_blob_.size() > 0xffffffffull) {
    throw std::length_error("Builder: node name arena exceeds 4 GiB");
  }
  g_.name_off_.push_back(static_cast<std::uint32_t>(g_.name_blob_.size()));
}

NodeId Builder::add_node(std::string_view name, double x, double y,
                         double repair_cost) {
  if (!(repair_cost >= 0.0)) {
    throw std::invalid_argument("Builder: node repair cost must be >= 0");
  }
  if (g_.num_nodes() >= kMaxGraphElements) {
    throw std::length_error("Builder: node count exceeds 2^31 (32-bit ids)");
  }
  g_.node_x_.push_back(x);
  g_.node_y_.push_back(y);
  g_.node_repair_cost_.push_back(repair_cost);
  g_.node_broken_.push_back(0);
  append_name(name);
  return static_cast<NodeId>(g_.num_nodes() - 1);
}

NodeId Builder::add_nodes(std::size_t count, double repair_cost) {
  if (!(repair_cost >= 0.0)) {
    throw std::invalid_argument("Builder: node repair cost must be >= 0");
  }
  if (count > kMaxGraphElements ||
      g_.num_nodes() > kMaxGraphElements - count) {
    throw std::length_error("Builder: node count exceeds 2^31 (32-bit ids)");
  }
  const auto first = static_cast<NodeId>(g_.num_nodes());
  const std::size_t total = g_.num_nodes() + count;
  g_.node_x_.resize(total, 0.0);
  g_.node_y_.resize(total, 0.0);
  g_.node_repair_cost_.resize(total, repair_cost);
  g_.node_broken_.resize(total, 0);
  if (!g_.name_off_.empty()) {
    g_.name_off_.resize(total + 1, g_.name_off_.back());
  }
  return first;
}

EdgeId Builder::add_edge(NodeId u, NodeId v, double capacity,
                         double repair_cost) {
  const auto n = static_cast<std::size_t>(g_.num_nodes());
  if (u < 0 || v < 0 || static_cast<std::size_t>(u) >= n ||
      static_cast<std::size_t>(v) >= n) {
    throw std::invalid_argument("Builder: edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("Builder: self-loops not supported");
  if (!(capacity >= 0.0)) {
    throw std::invalid_argument("Builder: capacity must be >= 0 and not NaN");
  }
  if (!(repair_cost >= 0.0)) {
    throw std::invalid_argument("Builder: edge repair cost must be >= 0");
  }
  if (g_.num_edges() >= kMaxGraphElements) {
    throw std::length_error("Builder: edge count exceeds 2^31 (32-bit ids)");
  }
  g_.edge_u_.push_back(u);
  g_.edge_v_.push_back(v);
  g_.edge_capacity_.push_back(capacity);
  g_.edge_repair_cost_.push_back(repair_cost);
  g_.edge_broken_.push_back(0);
  return static_cast<EdgeId>(g_.num_edges() - 1);
}

void Builder::adopt_nodes(std::vector<double> xs, std::vector<double> ys,
                          std::vector<double> repair_costs,
                          std::vector<std::uint8_t> broken,
                          std::string name_blob,
                          std::vector<std::uint32_t> name_offsets) {
  if (xs.size() > kMaxGraphElements) {
    throw std::length_error("Builder: node count exceeds 2^31 (32-bit ids)");
  }
  if (broken.empty()) broken.assign(xs.size(), 0);
  g_.node_x_ = std::move(xs);
  g_.node_y_ = std::move(ys);
  g_.node_repair_cost_ = std::move(repair_costs);
  g_.node_broken_ = std::move(broken);
  g_.name_blob_ = std::move(name_blob);
  g_.name_off_ = std::move(name_offsets);
}

void Builder::adopt_edges(std::vector<NodeId> sources,
                          std::vector<NodeId> targets,
                          std::vector<double> capacities,
                          std::vector<double> repair_costs,
                          std::vector<std::uint8_t> broken) {
  if (sources.size() > kMaxGraphElements) {
    throw std::length_error("Builder: edge count exceeds 2^31 (32-bit ids)");
  }
  if (broken.empty()) broken.assign(sources.size(), 0);
  g_.edge_u_ = std::move(sources);
  g_.edge_v_ = std::move(targets);
  g_.edge_capacity_ = std::move(capacities);
  g_.edge_repair_cost_ = std::move(repair_costs);
  g_.edge_broken_ = std::move(broken);
}

void Builder::validate_columns() const {
  const std::size_t n = g_.node_x_.size();
  const std::size_t m = g_.edge_u_.size();
  if (g_.node_y_.size() != n || g_.node_repair_cost_.size() != n ||
      g_.node_broken_.size() != n) {
    throw std::invalid_argument("Builder: node column sizes disagree");
  }
  if (g_.edge_v_.size() != m || g_.edge_capacity_.size() != m ||
      g_.edge_repair_cost_.size() != m || g_.edge_broken_.size() != m) {
    throw std::invalid_argument("Builder: edge column sizes disagree");
  }
  if (!g_.name_off_.empty()) {
    if (g_.name_off_.size() != n + 1 || g_.name_off_.front() != 0 ||
        g_.name_off_.back() != g_.name_blob_.size() ||
        !std::is_sorted(g_.name_off_.begin(), g_.name_off_.end())) {
      throw std::invalid_argument("Builder: malformed name arena offsets");
    }
  } else if (!g_.name_blob_.empty()) {
    throw std::invalid_argument("Builder: name blob without offsets");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(g_.node_x_[i]) || !std::isfinite(g_.node_y_[i])) {
      throw std::invalid_argument("Builder: node " + std::to_string(i) +
                                  " has non-finite coordinates");
    }
    if (!(g_.node_repair_cost_[i] >= 0.0) ||
        !std::isfinite(g_.node_repair_cost_[i])) {
      throw std::invalid_argument("Builder: node " + std::to_string(i) +
                                  " has invalid repair cost");
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    const NodeId u = g_.edge_u_[e];
    const NodeId v = g_.edge_v_[e];
    if (u < 0 || v < 0 || static_cast<std::size_t>(u) >= n ||
        static_cast<std::size_t>(v) >= n) {
      throw std::invalid_argument("Builder: edge " + std::to_string(e) +
                                  " endpoint out of range");
    }
    if (u == v) {
      throw std::invalid_argument("Builder: edge " + std::to_string(e) +
                                  " is a self-loop");
    }
    if (!(g_.edge_capacity_[e] >= 0.0) ||
        !std::isfinite(g_.edge_capacity_[e]) ||
        !(g_.edge_repair_cost_[e] >= 0.0) ||
        !std::isfinite(g_.edge_repair_cost_[e])) {
      throw std::invalid_argument("Builder: edge " + std::to_string(e) +
                                  " has invalid capacity or repair cost");
    }
  }
}

void Builder::check_duplicates() const {
  const std::size_t m = g_.edge_u_.size();
  std::vector<std::uint64_t> keys(m);
  for (std::size_t e = 0; e < m; ++e) {
    keys[e] = endpoint_key(g_.edge_u_[e], g_.edge_v_[e]);
  }
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    const auto u = static_cast<NodeId>(*dup >> 32);
    const auto v = static_cast<NodeId>(*dup & 0xffffffffu);
    throw std::invalid_argument("Builder: duplicate edge between " +
                                std::to_string(u) + " and " +
                                std::to_string(v));
  }
}

void Builder::apply_degree_order() {
  const std::size_t n = g_.node_x_.size();
  const std::size_t m = g_.edge_u_.size();
  std::vector<std::uint32_t> deg(n, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++deg[static_cast<std::size_t>(g_.edge_u_[e])];
    ++deg[static_cast<std::size_t>(g_.edge_v_[e])];
  }
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return deg[static_cast<std::size_t>(a)] >
           deg[static_cast<std::size_t>(b)];
  });
  std::vector<NodeId> permutation(n, kInvalidNode);  // old id -> new id
  for (std::size_t rank = 0; rank < n; ++rank) {
    permutation[static_cast<std::size_t>(order[rank])] =
        static_cast<NodeId>(rank);
  }
  auto permute_doubles = [&](std::vector<double>& col) {
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(permutation[i])] = col[i];
    }
    col = std::move(out);
  };
  permute_doubles(g_.node_x_);
  permute_doubles(g_.node_y_);
  permute_doubles(g_.node_repair_cost_);
  std::vector<std::uint8_t> broken(n);
  for (std::size_t i = 0; i < n; ++i) {
    broken[static_cast<std::size_t>(permutation[i])] = g_.node_broken_[i];
  }
  g_.node_broken_ = std::move(broken);
  if (!g_.name_off_.empty()) {
    std::string blob;
    blob.reserve(g_.name_blob_.size());
    std::vector<std::uint32_t> offsets(n + 1, 0);
    for (std::size_t rank = 0; rank < n; ++rank) {
      const auto old_id = static_cast<std::size_t>(order[rank]);
      const std::uint32_t begin = g_.name_off_[old_id];
      const std::uint32_t end = g_.name_off_[old_id + 1];
      blob.append(g_.name_blob_, begin, end - begin);
      offsets[rank + 1] = static_cast<std::uint32_t>(blob.size());
    }
    g_.name_blob_ = std::move(blob);
    g_.name_off_ = std::move(offsets);
  }
  for (std::size_t e = 0; e < m; ++e) {
    g_.edge_u_[e] = permutation[static_cast<std::size_t>(g_.edge_u_[e])];
    g_.edge_v_[e] = permutation[static_cast<std::size_t>(g_.edge_v_[e])];
  }
}

void Builder::pack_incidence() {
  const std::size_t n = g_.num_nodes();
  const std::size_t m = g_.num_edges();
  // Counting-sort the edges into CSR slices.  Appending edges in id order
  // makes each node's slice increasing in edge id.
  g_.inc_off_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++g_.inc_off_[static_cast<std::size_t>(g_.edge_u_[e]) + 1];
    ++g_.inc_off_[static_cast<std::size_t>(g_.edge_v_[e]) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) g_.inc_off_[i + 1] += g_.inc_off_[i];
  g_.inc_edge_.resize(2 * m);
  std::vector<std::uint32_t> cursor(g_.inc_off_.begin(), g_.inc_off_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    g_.inc_edge_[cursor[static_cast<std::size_t>(g_.edge_u_[e])]++] =
        static_cast<EdgeId>(e);
    g_.inc_edge_[cursor[static_cast<std::size_t>(g_.edge_v_[e])]++] =
        static_cast<EdgeId>(e);
  }
  // Neighbour-sorted secondary index over the same offsets: a per-node sort
  // of (neighbour, edge) pairs.  Duplicates were rejected, so neighbours
  // within a slice are unique and the order is fixed by the neighbour id.
  g_.sorted_nbr_.resize(2 * m);
  g_.sorted_edge_.resize(2 * m);
  std::vector<std::pair<NodeId, EdgeId>> scratch;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = g_.inc_off_[i];
    const std::size_t hi = g_.inc_off_[i + 1];
    scratch.clear();
    scratch.reserve(hi - lo);
    for (std::size_t a = lo; a < hi; ++a) {
      const auto e = static_cast<std::size_t>(g_.inc_edge_[a]);
      const NodeId head = g_.edge_u_[e] == static_cast<NodeId>(i)
                              ? g_.edge_v_[e]
                              : g_.edge_u_[e];
      scratch.emplace_back(head, g_.inc_edge_[a]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t k = 0; k < scratch.size(); ++k) {
      g_.sorted_nbr_[lo + k] = scratch[k].first;
      g_.sorted_edge_[lo + k] = scratch[k].second;
    }
  }
}

Graph Builder::finalize() {
  try {
    validate_columns();
    check_duplicates();
  } catch (...) {
    g_ = Graph{};  // a rejected batch is discarded, not kept for a retry
    throw;
  }
  if (options_.degree_order) apply_degree_order();
  // Normalise adopted flags (binary loaders may hand us arbitrary nonzero
  // bytes) and recompute the O(1) broken counters from scratch.
  for (auto& b : g_.node_broken_) b = b ? 1 : 0;
  for (auto& b : g_.edge_broken_) b = b ? 1 : 0;
  g_.broken_node_count_ = static_cast<std::size_t>(
      std::count(g_.node_broken_.begin(), g_.node_broken_.end(), 1));
  g_.broken_edge_count_ = static_cast<std::size_t>(
      std::count(g_.edge_broken_.begin(), g_.edge_broken_.end(), 1));
  pack_incidence();
  Graph out = std::move(g_);
  g_ = Graph{};
  return out;
}

}  // namespace netrec::graph
