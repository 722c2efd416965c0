// ViewCache contract tests: after any interleaving of repair / capacity
// mutations and invalidation events, a cached view must agree arc-for-arc
// (CSR offsets, targets, edge ids, lengths, capacities, usability bits)
// with a GraphView built fresh from the same configuration — bitwise, not
// approximately.  Randomised over broken Erdős–Rényi draws and the
// Bell-Canada topology, mirroring the PR-2 GraphView equivalence style.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/repair_state.hpp"
#include "graph/view.hpp"
#include "graph/view_cache.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;

graph::Graph broken_er(std::uint64_t seed, std::size_t nodes = 30,
                       double p = 0.15) {
  util::Rng rng(seed);
  topology::ErdosRenyiOptions options;
  options.nodes = nodes;
  options.edge_probability = p;
  options.capacity = 8.0;
  graph::Graph g = topology::make_topology(options, rng);
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (rng.chance(0.2)) g.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.chance(0.3)) g.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return g;
}

/// Exact structural equality: offsets, arc records, per-edge metric arrays
/// and the edge membership bitset.
void expect_same_view(const graph::GraphView& cached,
                      const graph::GraphView& fresh) {
  ASSERT_EQ(cached.num_nodes(), fresh.num_nodes());
  ASSERT_EQ(cached.num_edges(), fresh.num_edges());
  ASSERT_EQ(cached.num_arcs(), fresh.num_arcs());
  for (std::size_t n = 0; n < cached.num_nodes(); ++n) {
    const auto id = static_cast<graph::NodeId>(n);
    ASSERT_EQ(cached.arcs_begin(id), fresh.arcs_begin(id))
        << "offset mismatch at node " << n;
    ASSERT_EQ(cached.arcs_end(id), fresh.arcs_end(id));
    for (graph::ArcId a = cached.arcs_begin(id); a < cached.arcs_end(id);
         ++a) {
      EXPECT_EQ(cached.arc_target(a), fresh.arc_target(a));
      EXPECT_EQ(cached.arc_edge(a), fresh.arc_edge(a));
      EXPECT_EQ(cached.arc_length(a), fresh.arc_length(a));
      EXPECT_EQ(cached.arc_capacity(a), fresh.arc_capacity(a));
    }
  }
  for (std::size_t e = 0; e < cached.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    EXPECT_EQ(cached.edge_in_view(id), fresh.edge_in_view(id))
        << "usability mismatch on edge " << e;
    EXPECT_EQ(cached.edge_length(id), fresh.edge_length(id))
        << "length mismatch on edge " << e;
    EXPECT_EQ(cached.edge_capacity(id), fresh.edge_capacity(id))
        << "capacity mismatch on edge " << e;
  }
}

/// ISP-shaped mutable state driving the cached configs.
struct MutableState {
  explicit MutableState(const graph::Graph& graph)
      : g(graph), repairs(graph), residual(graph.num_edges()) {
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      residual[e] = g.edge_capacity(static_cast<graph::EdgeId>(e));
    }
  }

  double metric(graph::EdgeId e) const {
    const auto [eu, ev] = g.edge_endpoints(e);
    double k = 1.0;
    if (g.edge_broken(e) && !repairs.edge_repaired(e)) k += g.edge_repair_cost(e);
    if (g.node_broken(eu) && !repairs.node_repaired(eu)) k += 0.5;
    if (g.node_broken(ev) && !repairs.node_repaired(ev)) k += 0.5;
    return k / std::max(residual[static_cast<std::size_t>(e)], 1e-6);
  }

  const graph::Graph& g;
  core::RepairState repairs;
  std::vector<double> residual;
};

/// The three ISP-style configurations over `state`.
std::vector<graph::ViewConfig> configs(MutableState& state) {
  graph::ViewConfig working;
  working.edge_ok = [&state](graph::EdgeId e) {
    return state.repairs.edge_ok(e);
  };
  working.capacity = [&state](graph::EdgeId e) {
    return state.residual[static_cast<std::size_t>(e)];
  };
  graph::ViewConfig metric;  // full graph, dynamic lengths
  metric.length = [&state](graph::EdgeId e) { return state.metric(e); };
  metric.capacity = working.capacity;
  graph::ViewConfig usable;  // residual-positive membership
  usable.edge_ok = [&state](graph::EdgeId e) {
    return state.residual[static_cast<std::size_t>(e)] > 1e-9;
  };
  usable.length = metric.length;
  return {working, metric, usable};
}

TEST(ViewCache, RandomInterleavingsMatchFreshBuilds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const graph::Graph g = broken_er(seed);
    if (g.num_edges() == 0) continue;
    MutableState state(g);
    auto slot_configs = configs(state);

    graph::ViewCache cache(g);
    for (std::size_t s = 0; s < slot_configs.size(); ++s) {
      cache.add_config(slot_configs[s]);
    }
    state.repairs.publish_to(&cache);

    util::Rng rng(seed * 7919 + 3);
    const auto m = static_cast<std::int64_t>(g.num_edges());
    const auto n = static_cast<std::int64_t>(g.num_nodes());
    for (int step = 0; step < 120; ++step) {
      const auto op = rng.uniform_int(0, 5);
      if (op <= 1) {  // consume residual (half the time down to zero)
        const auto e =
            static_cast<graph::EdgeId>(rng.uniform_int(0, m - 1));
        auto& r = state.residual[static_cast<std::size_t>(e)];
        r = rng.chance(0.5) ? 0.0 : r * 0.5;
        cache.invalidate_edge(e);
      } else if (op == 2) {  // repair an edge (publishes automatically)
        state.repairs.repair_edge(
            static_cast<graph::EdgeId>(rng.uniform_int(0, m - 1)));
      } else if (op == 3) {  // repair a node
        state.repairs.repair_node(
            static_cast<graph::NodeId>(rng.uniform_int(0, n - 1)));
      } else if (op == 4 && rng.chance(0.2)) {  // occasional full bump
        cache.bump_epoch();
      }
      // Not every mutation is followed by a read; let dirt accumulate.
      if (!rng.chance(0.6)) continue;
      for (std::size_t s = 0; s < slot_configs.size(); ++s) {
        expect_same_view(cache.view(s),
                         graph::GraphView::build(g, slot_configs[s]));
      }
    }
    // Final sync after the last mutations.
    for (std::size_t s = 0; s < slot_configs.size(); ++s) {
      expect_same_view(cache.view(s),
                       graph::GraphView::build(g, slot_configs[s]));
    }
  }
}

TEST(ViewCache, BellCanadaRepairSweepMatchesFreshBuilds) {
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  g.break_everything();
  MutableState state(g);
  auto slot_configs = configs(state);
  graph::ViewCache cache(g);
  for (std::size_t s = 0; s < slot_configs.size(); ++s) {
    cache.add_config(slot_configs[s]);
  }
  state.repairs.publish_to(&cache);

  util::Rng rng(17);
  // Repair everything in random order, draining a random edge between
  // repairs; verify after every event.
  std::vector<graph::EdgeId> edges(g.num_edges());
  std::vector<graph::NodeId> nodes(g.num_nodes());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    edges[e] = static_cast<graph::EdgeId>(e);
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    nodes[n] = static_cast<graph::NodeId>(n);
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  std::shuffle(nodes.begin(), nodes.end(), rng);
  std::size_t ei = 0;
  std::size_t ni = 0;
  while (ei < edges.size() || ni < nodes.size()) {
    if (ei < edges.size() && (ni >= nodes.size() || rng.chance(0.6))) {
      state.repairs.repair_edge(edges[ei++]);
    } else {
      state.repairs.repair_node(nodes[ni++]);
    }
    const auto drain = static_cast<graph::EdgeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1));
    state.residual[static_cast<std::size_t>(drain)] *= 0.25;
    cache.invalidate_edge(drain);
    for (std::size_t s = 0; s < slot_configs.size(); ++s) {
      expect_same_view(cache.view(s),
                       graph::GraphView::build(g, slot_configs[s]));
    }
  }
}

TEST(ViewCache, ResidualOnlyUpdatesRefreshNotRebuild) {
  const graph::Graph g = broken_er(4);
  MutableState state(g);
  graph::ViewConfig working;  // filter ignores residuals
  working.edge_ok = [&state](graph::EdgeId e) {
    return state.repairs.edge_ok(e);
  };
  working.capacity = [&state](graph::EdgeId e) {
    return state.residual[static_cast<std::size_t>(e)];
  };
  graph::ViewCache cache(g);
  const auto slot = cache.add_config(working);
  (void)cache.view(slot);
  ASSERT_EQ(cache.stats().builds, 1u);

  // Draining capacity — even to zero — must refresh in place.
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.num_edges()) - 1));
    state.residual[static_cast<std::size_t>(e)] = 0.0;
    cache.invalidate_edge(e);
    (void)cache.view(slot);
    EXPECT_EQ(cache.stats().builds, 1u) << "residual update forced a rebuild";
  }
  EXPECT_GT(cache.stats().refreshes, 0u);

  // A repair flips the working filter verdict: now a rebuild is required.
  graph::EdgeId broken = graph::kInvalidEdge;
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    if (g.edge_broken(id)) {
      broken = id;
      break;
    }
  }
  ASSERT_NE(broken, graph::kInvalidEdge);
  state.repairs.publish_to(&cache);
  ASSERT_TRUE(state.repairs.repair_edge(broken));
  (void)cache.view(slot);
  EXPECT_EQ(cache.stats().builds, 2u);
  expect_same_view(cache.view(slot), graph::GraphView::build(g, working));
}

TEST(ViewCache, UnchangedViewIsServedWithoutWork) {
  const graph::Graph g = broken_er(6);
  graph::ViewCache cache(g);
  graph::ViewConfig config;
  config.edge_ok = graph::working_edge_filter(g);
  const auto slot = cache.add_config(config);
  const graph::GraphView& first = cache.view(slot);
  const graph::GraphView& second = cache.view(slot);
  EXPECT_EQ(&first, &second);  // address-stable
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ViewCache, EpochAdvancesOnEveryMutation) {
  const graph::Graph g = broken_er(7);
  graph::ViewCache cache(g);
  const auto e0 = cache.epoch();
  cache.invalidate_edge(0);
  EXPECT_EQ(cache.epoch(), e0 + 1);
  cache.invalidate_node(0);
  EXPECT_EQ(cache.epoch(), e0 + 2);
  cache.bump_epoch();
  EXPECT_EQ(cache.epoch(), e0 + 3);
}

TEST(ViewCache, NamedLookupAndErrors) {
  const graph::Graph g = broken_er(8);
  graph::ViewCache cache(g);
  graph::ViewConfig config;
  const auto slot = cache.add_config(config);
  EXPECT_THROW(cache.view(slot + 1), std::invalid_argument);
  EXPECT_THROW(cache.invalidate_edge(static_cast<graph::EdgeId>(
                   g.num_edges())),
               std::invalid_argument);
  EXPECT_THROW(cache.invalidate_node(static_cast<graph::NodeId>(
                   g.num_nodes())),
               std::invalid_argument);
}

}  // namespace
