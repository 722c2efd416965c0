#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "topology/topologies.hpp"
#include "util/log.hpp"

namespace netrec::topology {

namespace detail {

graph::Graph erdos_renyi_impl(const ErdosRenyiOptions& options,
                              util::Rng& rng) {
  graph::Builder builder;
  for (std::size_t i = 0; i < options.nodes; ++i) {
    builder.add_node("n" + std::to_string(i), rng.uniform(0.0, 100.0),
                     rng.uniform(0.0, 100.0), kRepairCost);
  }
  for (std::size_t i = 0; i < options.nodes; ++i) {
    for (std::size_t j = i + 1; j < options.nodes; ++j) {
      if (rng.chance(options.edge_probability)) {
        builder.add_edge(static_cast<graph::NodeId>(i),
                         static_cast<graph::NodeId>(j), options.capacity,
                         kRepairCost);
      }
    }
  }
  return builder.finalize();
}

graph::Graph caida_like_impl(const CaidaLikeOptions& options,
                             util::Rng& rng) {
  if (options.edges + 1 < options.nodes) {
    throw std::invalid_argument("caida_like: too few edges to connect");
  }
  graph::Builder builder;
  builder.reserve(options.nodes, options.edges);
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
    builder.add_node("as" + std::to_string(i), cx + rng.normal(0.0, 6.0),
                     cy + rng.normal(0.0, 6.0), kRepairCost);
  }

  // Preferential attachment on a growing prefix keeps the graph connected
  // and the degree distribution heavy-tailed, like AS-level topologies.
  std::vector<graph::NodeId> attachment_pool;  // node repeated per degree
  // Endpoint pairs placed so far: the peering loop skips parallel links.
  std::unordered_set<std::uint64_t> placed;
  const auto link = [&](graph::NodeId a, graph::NodeId b) {
    builder.add_edge(a, b, options.capacity, kRepairCost);
    placed.insert(graph::endpoint_key(a, b));
  };
  link(0, 1);
  attachment_pool.insert(attachment_pool.end(), {0, 0, 1, 1});
  for (std::size_t i = 2; i < options.nodes; ++i) {
    const auto node = static_cast<graph::NodeId>(i);
    // Mostly single-homed stubs (m/n ratio must end near 1018/825 ~ 1.23).
    const auto pool_max =
        static_cast<std::int64_t>(attachment_pool.size()) - 1;
    graph::NodeId target = attachment_pool[static_cast<std::size_t>(
        rng.uniform_int(0, pool_max))];
    link(node, target);
    attachment_pool.push_back(node);
    attachment_pool.push_back(target);
  }
  // Extra peering links up to the exact edge budget.
  std::size_t guard = 0;
  while (builder.num_edges() < options.edges &&
         guard++ < options.edges * 200) {
    const auto a = attachment_pool[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(attachment_pool.size()) - 1))];
    const auto b = static_cast<graph::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.nodes) - 1));
    if (a == b || placed.count(graph::endpoint_key(a, b)) != 0) continue;
    link(a, b);
    attachment_pool.push_back(a);
    attachment_pool.push_back(b);
  }
  if (builder.num_edges() != options.edges) {
    NETREC_LOG(kWarn) << "caida_like: produced " << builder.num_edges()
                      << " edges instead of " << options.edges;
  }
  return builder.finalize();
}

}  // namespace detail

}  // namespace netrec::topology
