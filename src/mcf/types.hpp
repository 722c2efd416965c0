// Shared multi-commodity flow types.
//
// A Demand mirrors the paper's demand-graph edge (s_h, t_h, d_h); PathFlow
// is one routed path with an amount, and RoutingResult aggregates a flow
// assignment — ISP's final output routing, the referee that measures demand
// loss for SRT/GRD-COM, and the eq. (8) relaxation all speak this type.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace netrec::mcf {

struct Demand {
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId target = graph::kInvalidNode;
  double amount = 0.0;
};

struct PathFlow {
  int demand_index = -1;
  graph::Path path;
  double amount = 0.0;
};

struct RoutingResult {
  bool fully_routed = false;
  double total_routed = 0.0;
  std::vector<double> routed;  ///< per demand, same order as input
  std::vector<PathFlow> flows;
};

/// Checks a routing end to end: every flow path connects its demand's
/// endpoints, uses only edges passing `edge_ok`, and no edge load exceeds
/// `capacity(e) + tol`.  Returns false with no diagnostics (callers log).
bool routing_is_valid(const graph::Graph& g, const std::vector<Demand>& demands,
                      const std::vector<PathFlow>& flows,
                      const graph::EdgeFilter& edge_ok,
                      const graph::EdgeWeight& capacity, double tol = 1e-6);

/// Total demand volume.
double total_demand(const std::vector<Demand>& demands);

}  // namespace netrec::mcf
