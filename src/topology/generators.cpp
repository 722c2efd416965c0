#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/traversal.hpp"
#include "topology/topologies.hpp"
#include "util/log.hpp"

namespace netrec::topology {

namespace detail {

graph::Graph erdos_renyi_impl(const ErdosRenyiOptions& options,
                              util::Rng& rng) {
  graph::Graph g;
  for (std::size_t i = 0; i < options.nodes; ++i) {
    g.add_node("n" + std::to_string(i), rng.uniform(0.0, 100.0),
               rng.uniform(0.0, 100.0), options.repair_cost);
  }
  for (std::size_t i = 0; i < options.nodes; ++i) {
    for (std::size_t j = i + 1; j < options.nodes; ++j) {
      if (rng.chance(options.edge_probability)) {
        g.add_edge(static_cast<graph::NodeId>(i),
                   static_cast<graph::NodeId>(j), options.capacity,
                   options.repair_cost);
      }
    }
  }
  return g;
}

graph::Graph caida_like_impl(const CaidaLikeOptions& options,
                             util::Rng& rng) {
  if (options.edges + 1 < options.nodes) {
    throw std::invalid_argument("caida_like: too few edges to connect");
  }
  graph::Graph g;
  // Geographic embedding: a handful of metro clusters, AS routers scattered
  // around them (only the disruption models look at coordinates).
  const std::size_t clusters = 8;
  std::vector<std::pair<double, double>> centers;
  for (std::size_t c = 0; c < clusters; ++c) {
    centers.emplace_back(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0));
  }
  for (std::size_t i = 0; i < options.nodes; ++i) {
    const auto& [cx, cy] =
        centers[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(clusters) - 1))];
    g.add_node("as" + std::to_string(i), cx + rng.normal(0.0, 6.0),
               cy + rng.normal(0.0, 6.0), options.repair_cost);
  }

  // Preferential attachment on a growing prefix keeps the graph connected
  // and the degree distribution heavy-tailed, like AS-level topologies.
  std::vector<graph::NodeId> attachment_pool;  // node repeated per degree
  g.add_edge(0, 1, options.capacity, options.repair_cost);
  attachment_pool.insert(attachment_pool.end(), {0, 0, 1, 1});
  for (std::size_t i = 2; i < options.nodes; ++i) {
    const auto node = static_cast<graph::NodeId>(i);
    // Mostly single-homed stubs (m/n ratio must end near 1018/825 ~ 1.23).
    const auto pool_max =
        static_cast<std::int64_t>(attachment_pool.size()) - 1;
    graph::NodeId target = attachment_pool[static_cast<std::size_t>(
        rng.uniform_int(0, pool_max))];
    g.add_edge(node, target, options.capacity, options.repair_cost);
    attachment_pool.push_back(node);
    attachment_pool.push_back(target);
  }
  // Extra peering links up to the exact edge budget.
  std::size_t guard = 0;
  while (g.num_edges() < options.edges && guard++ < options.edges * 200) {
    const auto a = attachment_pool[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(attachment_pool.size()) - 1))];
    const auto b = static_cast<graph::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.nodes) - 1));
    if (a == b || g.find_edge(a, b) != graph::kInvalidEdge) continue;
    g.add_edge(a, b, options.capacity, options.repair_cost);
    attachment_pool.push_back(a);
    attachment_pool.push_back(b);
  }
  if (g.num_edges() != options.edges) {
    NETREC_LOG(kWarn) << "caida_like: produced " << g.num_edges()
                      << " edges instead of " << options.edges;
  }
  return g;
}

}  // namespace detail

}  // namespace netrec::topology
