// Whitespace edge-list interchange: one "u v [capacity [repair_cost]]" line
// per edge, '#' comments, node count inferred as max id + 1.  The lowest
// common denominator for importing public topology dumps (SNAP, Topology
// Zoo exports, Graph500 generators) into the binary pipeline; node
// attributes (names, coordinates) are not representable — use GML or .ntb
// when they matter.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace netrec::graph {

struct EdgeListOptions {
  double default_capacity = 1.0;
  double default_repair_cost = 1.0;
};

/// Parses edge-list text through Builder (batch duplicate detection).
/// Throws std::runtime_error naming the line on malformed input,
/// std::invalid_argument on duplicate/self-loop edges.
Graph parse_edge_list(const std::string& text,
                      const EdgeListOptions& options = {});

/// Loads and parses an edge-list file.
Graph load_edge_list_file(const std::string& path,
                          const EdgeListOptions& options = {});

/// Serialises the edges as "u v capacity repair_cost" lines.
std::string to_edge_list(const Graph& g);

/// Writes to_edge_list(g) to `path`; throws on I/O failure.
void save_edge_list_file(const Graph& g, const std::string& path);

}  // namespace netrec::graph
