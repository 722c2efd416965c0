#include "graph/path.hpp"

#include <algorithm>
#include <string_view>
#include <limits>
#include <sstream>

namespace netrec::graph {

NodeId Path::end(const Graph& g) const {
  NodeId at = start;
  for (EdgeId e : edges) at = g.other_endpoint(e, at);
  return at;
}

std::vector<NodeId> Path::nodes(const Graph& g) const {
  std::vector<NodeId> out;
  out.reserve(edges.size() + 1);
  NodeId at = start;
  out.push_back(at);
  for (EdgeId e : edges) {
    at = g.other_endpoint(e, at);
    out.push_back(at);
  }
  return out;
}

double Path::capacity(const EdgeWeight& edge_capacity) const {
  double cap = std::numeric_limits<double>::infinity();
  for (EdgeId e : edges) cap = std::min(cap, edge_capacity(e));
  return cap;
}

double Path::length(const EdgeWeight& edge_length) const {
  double total = 0.0;
  for (EdgeId e : edges) total += edge_length(e);
  return total;
}

bool Path::connects(const Graph& g, NodeId from, NodeId to) const {
  if (edges.empty()) return from == to && start == from;
  return start == from && end(g) == to;
}

std::string Path::to_string(const Graph& g) const {
  std::ostringstream out;
  bool first = true;
  for (NodeId n : nodes(g)) {
    if (!first) out << " - ";
    first = false;
    const std::string_view name = g.node_name(n);
    if (name.empty()) {
      out << n;
    } else {
      out << name;
    }
  }
  return out.str();
}

}  // namespace netrec::graph
