// The one construction path for a Graph: Builder accumulates flat SoA
// columns with O(1) appends (no adjacency maintenance, no per-edge duplicate
// scan), then finalize() validates the whole batch at once — duplicate
// edges, id range, 32-bit overflow — and emits a Graph whose incidence is
// CSR-packed and neighbour-sorted.  Uniqueness costs one O(E log E) sort at
// finalize rather than a probe per insert, which keeps 10^6-node
// RMAT/Barabási–Albert draws linear-ish on their hubs.  The generators
// (topology/), the GML, edge-list and binary (ntb.hpp) loaders and every
// hand-built test graph go through here.
//
// Options::degree_order relabels node ids by descending degree (ties by
// original id) before packing — the GAPBS-style layout that puts hub
// adjacency slices at the front of the arc array for locality.  Edge ids
// keep their append order either way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace netrec::graph {

/// Orientation-free key of the endpoint pair {u, v}: (min << 32) | max.
/// Builder's duplicate check uses it; so do loaders and generators that
/// must skip a parallel edge while they build.
inline std::uint64_t endpoint_key(NodeId u, NodeId v) {
  const auto a = static_cast<std::uint32_t>(u < v ? u : v);
  const auto b = static_cast<std::uint32_t>(u < v ? v : u);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

class Builder {
 public:
  struct Options {
    /// Relabel node ids by descending degree (ties by original id) at
    /// finalize.  Off by default: id stability is part of every golden.
    bool degree_order = false;
  };

  Builder() = default;
  explicit Builder(Options options) : options_(options) {}

  void reserve(std::size_t nodes, std::size_t edges);

  /// Appends one node; returns its id (dense, 0-based, pre-relabel).
  NodeId add_node(std::string_view name = {}, double x = 0.0, double y = 0.0,
                  double repair_cost = 1.0);

  /// Appends `count` unnamed nodes at the origin; returns the first id.
  /// The bulk path for generators where names would be pure overhead.
  NodeId add_nodes(std::size_t count, double repair_cost = 1.0);

  /// Appends an edge.  Endpoints must already exist; self-loops throw here,
  /// duplicates are detected at finalize() (batch sort) rather than per call.
  EdgeId add_edge(NodeId u, NodeId v, double capacity,
                  double repair_cost = 1.0);

  // --- bulk adoption (binary loader / conversion pipelines) --------------

  /// Moves whole node columns in; any prior content is replaced.  `broken`,
  /// `name_blob`/`name_offsets` may be empty (none broken / unnamed).
  void adopt_nodes(std::vector<double> xs, std::vector<double> ys,
                   std::vector<double> repair_costs,
                   std::vector<std::uint8_t> broken, std::string name_blob,
                   std::vector<std::uint32_t> name_offsets);

  /// Moves whole edge columns in; any prior content is replaced.
  void adopt_edges(std::vector<NodeId> sources, std::vector<NodeId> targets,
                   std::vector<double> capacities,
                   std::vector<double> repair_costs,
                   std::vector<std::uint8_t> broken);

  std::size_t num_nodes() const { return g_.num_nodes(); }
  std::size_t num_edges() const { return g_.num_edges(); }

  /// Validates the batch (column sizes, endpoint ranges, finite nonnegative
  /// metrics, duplicate edges, 2^31 id ceiling) and returns the packed
  /// graph.  Throws std::invalid_argument/std::length_error with the first
  /// offending element named; the Builder is left empty either way.
  Graph finalize();

 private:
  void append_name(std::string_view name);
  void validate_columns() const;
  void check_duplicates() const;
  void apply_degree_order();
  void pack_incidence();

  Options options_;
  Graph g_;  // used as an SoA column store; incidence packed at finalize only
};

}  // namespace netrec::graph
