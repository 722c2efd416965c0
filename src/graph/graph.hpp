// Undirected capacitated graph — the supply-network substrate.
//
// Matches the paper's model (Section III): the supply graph G = (V, E) has
// per-edge capacities c_ij and per-element repair costs k^v_i / k^e_ij;
// disruption marks subsets V_B / E_B broken.  Nodes carry coordinates so the
// geographically-correlated disruption models (Section VII-A3) can be applied.
//
// Storage is flat SoA: every per-node and per-edge attribute lives in its own
// contiguous vector (coordinates, repair costs, capacities, broken flags,
// edge endpoints), and node names are interned in a side arena — no
// std::string, no per-element allocation in the hot structure.  The class
// stores full topology including broken elements: ISP's centrality (eq. 3)
// is computed on the complete graph, while routing runs on the working
// subgraph.  The kernels therefore run on a GraphView (view.hpp) whose
// filters select the subgraph, never on a mutated copy.
//
// Topology is fixed at construction, as in the paper's model, where
// disruption and repair only flip element state.  graph::Builder
// (builder.hpp) is the one way to make a Graph: it validates a batch of node
// and edge columns and packs the incidence lists into a CSR pair (offsets +
// edge ids) plus a neighbour-sorted secondary index, making degree O(1) and
// find_edge O(log d).  Capacities, repair costs and coordinates are fixed
// there too; the broken flags are the only state that changes afterwards.
//
// incident_edges yields a node's edge ids in increasing id order, i.e. the
// order the edges were appended to the Builder, so every downstream
// floating-point tie-break (Dijkstra, Brandes, the LP column order) is fixed
// by the construction order alone.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netrec::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// Id-space ceiling: ids are signed 32-bit, so any construction path must
/// reject the 2^31-th node or edge with a clear error instead of wrapping.
inline constexpr std::size_t kMaxGraphElements =
    static_cast<std::size_t>(1) << 31;

/// Non-owning view over a node's incident edge ids (increasing id order): a
/// contiguous [begin, end) slice of the packed CSR incidence array.
class EdgeSpan {
 public:
  EdgeSpan() = default;
  EdgeSpan(const EdgeId* first, const EdgeId* last)
      : first_(first), last_(last) {}

  const EdgeId* begin() const { return first_; }
  const EdgeId* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  EdgeId operator[](std::size_t i) const { return first_[i]; }

 private:
  const EdgeId* first_ = nullptr;
  const EdgeId* last_ = nullptr;
};

class Builder;

class Graph {
 public:
  /// The empty graph; every other Graph comes from Builder::finalize().
  Graph() = default;

  std::size_t num_nodes() const { return node_x_.size(); }
  std::size_t num_edges() const { return edge_u_.size(); }

  // --- per-node attributes ----------------------------------------------

  /// Interned name ("" for unnamed nodes); the view stays valid until the
  /// Graph is destroyed or assigned to.
  std::string_view node_name(NodeId id) const;
  double node_x(NodeId id) const { return node_x_[index(id)]; }
  double node_y(NodeId id) const { return node_y_[index(id)]; }
  double node_repair_cost(NodeId id) const {
    return node_repair_cost_[index(id)];
  }
  bool node_broken(NodeId id) const { return node_broken_[index(id)] != 0; }

  void set_node_broken(NodeId id, bool broken);

  /// First node whose name equals `name`, or kInvalidNode (linear scan —
  /// a convenience for examples and loaders, not a hot path).
  NodeId find_node(std::string_view name) const;

  // --- per-edge attributes ----------------------------------------------

  NodeId edge_u(EdgeId id) const { return edge_u_[index_e(id)]; }
  NodeId edge_v(EdgeId id) const { return edge_v_[index_e(id)]; }
  std::pair<NodeId, NodeId> edge_endpoints(EdgeId id) const {
    return {edge_u_[index_e(id)], edge_v_[index_e(id)]};
  }
  double edge_capacity(EdgeId id) const { return edge_capacity_[index_e(id)]; }
  double edge_repair_cost(EdgeId id) const {
    return edge_repair_cost_[index_e(id)];
  }
  bool edge_broken(EdgeId id) const { return edge_broken_[index_e(id)] != 0; }

  void set_edge_broken(EdgeId id, bool broken);

  // --- topology queries --------------------------------------------------

  /// Edge ids incident to `node`, in increasing id order.
  EdgeSpan incident_edges(NodeId node) const {
    const std::size_t i = index(node);
    return {inc_edge_.data() + inc_off_[i], inc_edge_.data() + inc_off_[i + 1]};
  }

  /// The endpoint of `edge` that is not `from`.
  NodeId other_endpoint(EdgeId edge, NodeId from) const;

  /// The edge between u and v (either orientation), or kInvalidEdge.
  /// O(log d): binary search over the neighbour-sorted index.
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Degree counting all incident edges (broken included).  O(1).
  std::size_t degree(NodeId node) const {
    const std::size_t i = index(node);
    return inc_off_[i + 1] - inc_off_[i];
  }

  // --- disruption bookkeeping -------------------------------------------

  /// Marks every node and edge broken (the "complete destruction" scenario).
  void break_everything();

  std::vector<NodeId> broken_nodes() const;
  std::vector<EdgeId> broken_edges() const;
  std::size_t num_broken_nodes() const { return broken_node_count_; }
  std::size_t num_broken_edges() const { return broken_edge_count_; }

  /// An edge is usable iff itself and both endpoints are working.
  bool edge_usable(EdgeId id) const {
    const std::size_t e = index_e(id);
    return edge_broken_[e] == 0 &&
           node_broken_[static_cast<std::size_t>(edge_u_[e])] == 0 &&
           node_broken_[static_cast<std::size_t>(edge_v_[e])] == 0;
  }

  /// Throws std::invalid_argument if any id is out of range (debug aid).
  void check_node(NodeId id) const;
  void check_edge(EdgeId id) const;

  // --- raw SoA access (serialisation & bulk pipelines) -------------------

  const std::vector<double>& node_xs() const { return node_x_; }
  const std::vector<double>& node_ys() const { return node_y_; }
  const std::vector<double>& node_repair_costs() const {
    return node_repair_cost_;
  }
  const std::vector<std::uint8_t>& node_broken_flags() const {
    return node_broken_;
  }
  const std::vector<NodeId>& edge_sources() const { return edge_u_; }
  const std::vector<NodeId>& edge_targets() const { return edge_v_; }
  const std::vector<double>& edge_capacities() const { return edge_capacity_; }
  const std::vector<double>& edge_repair_costs() const {
    return edge_repair_cost_;
  }
  const std::vector<std::uint8_t>& edge_broken_flags() const {
    return edge_broken_;
  }
  /// Name arena (offsets are empty when every node is unnamed).
  const std::string& name_blob() const { return name_blob_; }
  const std::vector<std::uint32_t>& name_offsets() const { return name_off_; }

 private:
  friend class Builder;

  std::size_t index(NodeId id) const { return static_cast<std::size_t>(id); }
  std::size_t index_e(EdgeId id) const { return static_cast<std::size_t>(id); }

  // node SoA
  std::vector<double> node_x_;
  std::vector<double> node_y_;
  std::vector<double> node_repair_cost_;
  std::vector<std::uint8_t> node_broken_;
  // Name arena: name of node i is name_blob_[name_off_[i], name_off_[i+1]).
  // Offsets stay empty while every node is unnamed (the bulk-built case).
  std::string name_blob_;
  std::vector<std::uint32_t> name_off_;

  // edge SoA
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<double> edge_capacity_;
  std::vector<double> edge_repair_cost_;
  std::vector<std::uint8_t> edge_broken_;

  std::size_t broken_node_count_ = 0;
  std::size_t broken_edge_count_ = 0;

  // CSR incidence (increasing edge id per node) + neighbour-sorted
  // secondary index sharing the same offsets (find_edge binary search);
  // packed by Builder::finalize().
  std::vector<std::uint32_t> inc_off_;  ///< size V+1
  std::vector<EdgeId> inc_edge_;        ///< size 2E
  std::vector<NodeId> sorted_nbr_;      ///< size 2E
  std::vector<EdgeId> sorted_edge_;     ///< size 2E
};

/// Edge predicate and metric: the ViewConfig inputs a GraphView evaluates
/// once per edge (view.hpp), also taken by the mcf and steiner entry
/// points.  A default-constructed filter accepts everything.
using EdgeFilter = std::function<bool(EdgeId)>;
using EdgeWeight = std::function<double(EdgeId)>;

/// Filter matching the working subgraph G(n): broken elements excluded.
EdgeFilter working_edge_filter(const Graph& g);

}  // namespace netrec::graph
