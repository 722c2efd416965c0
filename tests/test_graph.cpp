// Unit tests for the graph substrate: structure, traversal, shortest paths,
// max flow, simple-path enumeration and GML round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "golden.hpp"
#include "graph/builder.hpp"
#include "graph/dijkstra.hpp"
#include "graph/gml.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/path.hpp"
#include "graph/simple_paths.hpp"
#include "graph/traversal.hpp"
#include "referees.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace netrec::graph {
namespace {

Graph make_square_with_diagonal() {
  // 0-1, 1-2, 2-3, 3-0 (capacity 10), diagonal 0-2 (capacity 3).
  Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node("n" + std::to_string(i));
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 0, 10.0);
  builder.add_edge(0, 2, 3.0);
  return builder.finalize();
}

TEST(Graph, BasicStructure) {
  Graph g = make_square_with_diagonal();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_NE(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(1, 3), kInvalidEdge);
  EXPECT_EQ(g.other_endpoint(g.find_edge(0, 1), 0), 1);
  EXPECT_EQ(g.other_endpoint(g.find_edge(0, 1), 1), 0);
}

TEST(Graph, BreakAndRepairBookkeeping) {
  Graph g = make_square_with_diagonal();
  EXPECT_EQ(g.num_broken_nodes(), 0u);
  g.break_everything();
  EXPECT_EQ(g.num_broken_nodes(), 4u);
  EXPECT_EQ(g.num_broken_edges(), 5u);
  EXPECT_FALSE(g.edge_usable(0));
  g.set_edge_broken(0, false);
  g.set_node_broken(g.edge_u(0), false);
  g.set_node_broken(g.edge_v(0), false);
  EXPECT_TRUE(g.edge_usable(0));
  EXPECT_EQ(g.num_broken_nodes(), 2u);
  EXPECT_EQ(g.num_broken_edges(), 4u);
}

TEST(Graph, EdgeUsableRequiresWorkingEndpoints) {
  Graph g = make_square_with_diagonal();
  g.set_node_broken(1, true);
  EXPECT_FALSE(g.edge_usable(g.find_edge(0, 1)));
  EXPECT_TRUE(g.edge_usable(g.find_edge(3, 0)));
}

TEST(Traversal, BfsHopsAndDiameter) {
  Graph g = make_square_with_diagonal();
  const GraphView view = GraphView::build(g);
  const auto dist = bfs_hops(view, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 1);  // via diagonal
  EXPECT_EQ(dist[3], 1);
  EXPECT_EQ(hop_diameter(view), 2);
}

TEST(Traversal, FiltersExcludeBrokenElements) {
  Graph g = make_square_with_diagonal();
  g.set_edge_broken(g.find_edge(0, 2), true);
  g.set_edge_broken(g.find_edge(0, 1), true);
  const auto dist = bfs_hops(GraphView::working(g), 0);
  EXPECT_EQ(dist[2], 2);  // 0-3-2
  EXPECT_EQ(dist[1], 3);  // 0-3-2-1
}

TEST(Traversal, ComponentsSplitWhenCut) {
  Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  builder.add_edge(3, 4, 1.0);
  Graph g = builder.finalize();
  const GraphView view = GraphView::build(g);
  const auto label = connected_components(view);
  EXPECT_EQ(label[0], label[2]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[3], label[5]);
  const auto giant = giant_component(view);
  EXPECT_EQ(giant.size(), 3u);
}

TEST(Traversal, DiameterSeesNodesIsolatedByTheEdgeFilter) {
  // Ring 0-1-2-3-4-5-0; breaking node 5 leaves the path 0-1-2-3-4.
  Builder builder;
  builder.add_nodes(6);
  for (NodeId i = 0; i < 6; ++i) builder.add_edge(i, (i + 1) % 6, 1.0);
  Graph g = builder.finalize();
  g.set_node_broken(5, true);
  EXPECT_EQ(hop_diameter(GraphView::build(g)), 3);
  // Every node is in every view: the working filter drops node 5's edges,
  // so node 5 stays in the view, isolated, and the view is disconnected.
  EXPECT_EQ(hop_diameter(GraphView::working(g)), -1);
}

/// One bfs_hops per source: the reference for the multi-source kernel
/// behind hop_diameter and near_matrix.
struct HopReference {
  std::vector<std::vector<int>> hops;  ///< one row per source
  int diameter = 0;                    ///< -1 when some pair is unreachable
  int max_finite = 0;                  ///< largest finite distance
};

HopReference per_source_hops(const GraphView& view) {
  HopReference ref;
  ref.hops.resize(view.num_nodes());
  for (std::size_t s = 0; s < view.num_nodes(); ++s) {
    ref.hops[s] = bfs_hops(view, static_cast<NodeId>(s));
    for (std::size_t t = 0; t < view.num_nodes(); ++t) {
      const int d = ref.hops[s][t];
      if (d < 0) {
        ref.diameter = -1;
      } else {
        ref.max_finite = std::max(ref.max_finite, d);
        if (ref.diameter >= 0) ref.diameter = std::max(ref.diameter, d);
      }
    }
  }
  return ref;
}

/// hop_diameter, and near_matrix at every limit from -1 to max_finite + 1,
/// against the per-source reference, bit for bit.
void expect_matches_per_source_bfs(const GraphView& view,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  const HopReference ref = per_source_hops(view);
  EXPECT_EQ(hop_diameter(view), ref.diameter);
  const std::size_t n = view.num_nodes();
  for (int limit = -1; limit <= ref.max_finite + 1; ++limit) {
    const NearMatrix near = near_matrix(view, limit);
    ASSERT_EQ(near.num_nodes(), n);
    ASSERT_EQ(near.num_batches(), (n + 63) / 64);
    std::size_t mismatches = 0;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t t = 0; t < n; ++t) {
        const bool expected = ref.hops[s][t] >= 0 && ref.hops[s][t] <= limit;
        if (near.near(static_cast<NodeId>(s), static_cast<NodeId>(t)) !=
            expected) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "limit " << limit;
    if (n % 64 != 0) {
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(near.sources_near(n / 64, static_cast<NodeId>(t)) >> (n % 64),
                  0u)
            << "padding bits, limit " << limit;
      }
    }
  }
}

Graph edgeless(std::size_t nodes) {
  Builder builder;
  builder.add_nodes(nodes);
  return builder.finalize();
}

/// Plain and edge-filtered views of one graph.
void expect_views_match_per_source_bfs(const Graph& g,
                                       const std::string& label) {
  expect_matches_per_source_bfs(GraphView::build(g), label);
  expect_matches_per_source_bfs(
      GraphView::build(g, {.edge_ok = [](EdgeId e) { return e % 3 != 0; }}),
      label + " edge-filtered");
}

TEST(MultiSourceBfs, MatchesPerSourceBfsAcrossBatchBoundaries) {
  expect_views_match_per_source_bfs(edgeless(0), "0 nodes");
  expect_views_match_per_source_bfs(edgeless(1), "1 node");
  expect_views_match_per_source_bfs(edgeless(3), "3 isolated nodes");
  for (const std::size_t nodes : {63, 64, 65, 130}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::string suffix =
          std::to_string(nodes) + " seed " + std::to_string(seed);
      topology::ErdosRenyiOptions er;
      er.nodes = nodes;
      er.edge_probability = 3.0 / static_cast<double>(nodes);
      expect_views_match_per_source_bfs(
          topology::make_topology({er, seed}), "er " + suffix);
      topology::BarabasiAlbertOptions ba;
      ba.nodes = nodes;
      ba.attach = seed;
      expect_views_match_per_source_bfs(
          topology::make_topology({ba, seed}), "ba " + suffix);
    }
  }
}

TEST(MultiSourceBfs, MatchesPerSourceBfsOnDisconnectedAndBrokenGraphs) {
  expect_views_match_per_source_bfs(test::two_triangles(), "two triangles");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = test::broken_er(seed, 70, 0.05);
    expect_matches_per_source_bfs(GraphView::working(g),
                                  "broken er working " + std::to_string(seed));
    expect_views_match_per_source_bfs(g, "broken er " + std::to_string(seed));
  }
}

/// ResidualReach against one reachable(view, s, t, residual) BFS per pair,
/// in a query order that repeats sources, on views whose capacities drain
/// some arcs (to 0 or below the 1e-9 threshold), on the full graph and on
/// the working edges, where broken nodes are in the view but isolated.
TEST(ResidualReach, MatchesPerPairBfsOnDrainedAndEdgeFilteredViews) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const Graph g = test::broken_er(seed, 60, 0.06);
    std::vector<double> capacity(g.num_edges());
    for (double& c : capacity) {
      const double draw = rng.uniform();
      c = draw < 0.15 ? 0.0 : draw < 0.3 ? 1e-10 : rng.uniform(0.5, 2.0);
    }
    const EdgeWeight drained = [&capacity](EdgeId e) {
      return capacity[static_cast<std::size_t>(e)];
    };
    const std::vector<std::pair<std::string, GraphView>> views = {
        {"full", GraphView::build(g, {.capacity = drained})},
        {"working edges",
         GraphView::build(g, {.edge_ok = working_edge_filter(g),
                              .capacity = drained})},
    };
    // A few sources, each queried many times, a broken node included.
    std::vector<NodeId> sources;
    for (int i = 0; i < 8; ++i) {
      sources.push_back(static_cast<NodeId>(rng.uniform_int(0, 59)));
    }
    for (NodeId v = 0; v < 60; ++v) {
      if (g.node_broken(v)) {
        sources.push_back(v);
        break;
      }
    }
    for (const auto& [name, view] : views) {
      SCOPED_TRACE(name);
      ResidualReach reach(view, view.edge_capacities());
      std::size_t yes = 0;
      std::size_t no = 0;
      for (int q = 0; q < 400; ++q) {
        const NodeId s = sources[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
        const auto t = static_cast<NodeId>(rng.uniform_int(0, 59));
        const bool expected =
            reachable(view, s, t, view.edge_capacities());
        ASSERT_EQ(reach.reachable(s, t), expected)
            << "query " << q << ": " << s << " -> " << t;
        (expected ? yes : no) += 1;
      }
      EXPECT_GT(yes, 0u);
      EXPECT_GT(no, 0u);
    }
  }
}

TEST(Dijkstra, PrefersShortMetricOverFewHops) {
  // 0-1-2 each length 1 vs direct 0-2 length 5.
  Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  const EdgeId a = builder.add_edge(0, 1, 1.0);
  const EdgeId b = builder.add_edge(1, 2, 1.0);
  const EdgeId direct = builder.add_edge(0, 2, 1.0);
  Graph g = builder.finalize();
  auto length = [&](EdgeId e) { return e == direct ? 5.0 : 1.0; };
  auto path = shortest_path(GraphView::build(g, {.length = length}), 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->edges, (std::vector<EdgeId>{a, b}));
  EXPECT_NEAR(path->length(length), 2.0, 1e-12);
}

TEST(Dijkstra, ReturnsNulloptWhenDisconnected) {
  Builder builder;
  builder.add_node();
  builder.add_node();
  Graph g = builder.finalize();
  EXPECT_FALSE(shortest_path(GraphView::build(g), 0, 1).has_value());
}

TEST(Dijkstra, RejectsNegativeLengths) {
  Builder builder;
  builder.add_node();
  builder.add_node();
  builder.add_edge(0, 1, 1.0);
  Graph g = builder.finalize();
  ViewConfig config;
  config.length = [](EdgeId) { return -1.0; };
  EXPECT_THROW(dijkstra(GraphView::build(g, config), 0), std::invalid_argument);
}

TEST(Path, NodeSequenceAndSimplicity) {
  Graph g = make_square_with_diagonal();
  Path p;
  p.start = 0;
  p.edges = {g.find_edge(0, 1), g.find_edge(1, 2)};
  EXPECT_EQ(p.end(g), 2);
  EXPECT_TRUE(is_simple(g, p));
  EXPECT_TRUE(p.connects(g, 0, 2));
  EXPECT_FALSE(p.connects(g, 0, 3));
  const auto nodes = p.nodes(g);
  EXPECT_EQ(nodes, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Maxflow, SingleEdge) {
  Builder builder;
  builder.add_node();
  builder.add_node();
  builder.add_edge(0, 1, 7.5);
  Graph g = builder.finalize();
  const auto r = max_flow(GraphView::build(g), 0, 1);
  EXPECT_NEAR(r.value, 7.5, 1e-9);
}

TEST(Maxflow, ParallelPathsSum) {
  Graph g = make_square_with_diagonal();
  const auto r = max_flow(GraphView::build(g), 0, 2);
  // 0-1-2 (10) + 0-3-2 (10) + 0-2 (3).
  EXPECT_NEAR(r.value, 23.0, 1e-9);
}

TEST(Maxflow, RespectsEdgeFilterAroundANode) {
  // A view excludes a node through its incident edges.
  Graph g = make_square_with_diagonal();
  ViewConfig config;
  config.edge_ok = [&g](EdgeId e) {
    const auto [u, v] = g.edge_endpoints(e);
    return u != 1 && v != 1;
  };
  const auto r = max_flow(GraphView::build(g, config), 0, 2);
  EXPECT_NEAR(r.value, 13.0, 1e-9);  // loses the 0-1-2 path
}

TEST(Maxflow, DecompositionRecoversValue) {
  Graph g = make_square_with_diagonal();
  const auto r = max_flow(GraphView::build(g), 0, 2);
  const auto paths = decompose_flow(g, 0, 2, r.edge_flow);
  double total = 0.0;
  for (const auto& [path, amount] : paths) {
    EXPECT_TRUE(path.connects(g, 0, 2));
    EXPECT_GT(amount, 0.0);
    total += amount;
  }
  EXPECT_NEAR(total, r.value, 1e-6);
}

TEST(Maxflow, RandomGraphsFlowConservation) {
  util::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 8;
    Builder builder;
    for (int i = 0; i < n; ++i) builder.add_node();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.chance(0.4)) builder.add_edge(i, j, rng.uniform(1.0, 10.0));
      }
    }
    const Graph g = builder.finalize();
    const auto r = max_flow(GraphView::build(g), 0, n - 1);
    // Conservation at interior nodes.
    for (NodeId v = 1; v < n - 1; ++v) {
      double net = 0.0;
      for (EdgeId e : g.incident_edges(v)) {
        net += g.edge_u(e) == v ? r.edge_flow[static_cast<std::size_t>(e)]
                                : -r.edge_flow[static_cast<std::size_t>(e)];
      }
      EXPECT_NEAR(net, 0.0, 1e-6);
    }
    // Decomposition matches the value.
    const auto paths = decompose_flow(g, 0, n - 1, r.edge_flow);
    double total = 0.0;
    for (const auto& [path, amount] : paths) total += amount;
    EXPECT_NEAR(total, r.value, 1e-6);
  }
}

TEST(SimplePaths, EnumeratesAllInSquare) {
  Graph g = make_square_with_diagonal();
  const auto paths = all_simple_paths(GraphView::build(g), 0, 2);
  // 0-2, 0-1-2, 0-3-2, 0-1... only simple: {0-2, 0-1-2, 0-3-2}.
  EXPECT_EQ(paths.size(), 3u);
  for (const auto& p : paths) {
    EXPECT_TRUE(p.connects(g, 0, 2));
    EXPECT_TRUE(is_simple(g, p));
  }
}

TEST(SimplePaths, HonoursLimits) {
  Graph g = make_square_with_diagonal();
  const GraphView view = GraphView::build(g);
  SimplePathLimits limits;
  limits.max_paths = 1;
  EXPECT_EQ(all_simple_paths(view, 0, 2, limits).size(), 1u);
  limits.max_paths = 100;
  limits.max_hops = 1;
  EXPECT_EQ(all_simple_paths(view, 0, 2, limits).size(), 1u);  // only direct
}

TEST(SuccessivePaths, CoversDemandAndReportsCapacities) {
  Graph g = make_square_with_diagonal();
  const auto r = successive_shortest_paths(GraphView::build(g), 0, 2, 15.0);
  EXPECT_GE(r.total_capacity, 15.0);
  ASSERT_GE(r.paths.size(), 2u);
  double sum = 0.0;
  for (double c : r.capacities) sum += c;
  EXPECT_NEAR(sum, r.total_capacity, 1e-12);
}

TEST(SuccessivePaths, StopsWhenDisconnected) {
  Builder builder;
  builder.add_node();
  builder.add_node();
  Graph g = builder.finalize();
  const auto r = successive_shortest_paths(GraphView::build(g), 0, 1, 5.0);
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(r.total_capacity, 0.0);
}

// --- per-thread workspaces and early stops ---------------------------------

/// Runs `flow` on a fresh thread, whose kernel workspaces start empty.
std::string isolated_flow(const std::function<MaxflowResult()>& flow) {
  std::string bits;
  std::thread([&] { bits = test::flow_bits(flow()); }).join();
  return bits;
}

TEST(Maxflow, WorkspaceReuseAcrossGraphSizesIsInvisible) {
  const core::RecoveryProblem p = test::caida_lazy_scenario(1);
  const GraphView working = GraphView::working(p.graph);
  const GraphView full = GraphView::build(p.graph);
  const Graph small = test::small_flow_graph();
  const GraphView small_view = GraphView::build(small);
  const auto small_flow = [&] { return max_flow(small_view, 0, 2); };
  const std::string small_bits = isolated_flow(small_flow);
  EXPECT_EQ(max_flow(small_view, 0, 2).value, 5.0);
  for (const mcf::Demand& d : p.demands) {
    SCOPED_TRACE("demand " + std::to_string(d.source) + "-" +
                 std::to_string(d.target));
    const auto on_working = [&] {
      return max_flow(working, d.source, d.target);
    };
    const auto on_full = [&] { return max_flow(full, d.source, d.target); };
    const std::string working_bits = isolated_flow(on_working);
    const std::string full_bits = isolated_flow(on_full);
    // Interleaved on this thread: small, large, small, large.
    EXPECT_EQ(test::flow_bits(small_flow()), small_bits);
    EXPECT_EQ(test::flow_bits(on_full()), full_bits);
    EXPECT_EQ(test::flow_bits(small_flow()), small_bits);
    EXPECT_EQ(test::flow_bits(on_working()), working_bits);
  }
}

std::string bits_of(const std::optional<Path>& path) {
  if (!path) return "none";
  return std::to_string(path->start) + ":" + test::join_ids(path->edges);
}

TEST(Dijkstra, TargetSetStopMatchesFullTree) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = test::broken_er(seed);
    const EdgeFilter working = working_edge_filter(g);
    const GraphView view = GraphView::build(
        g, {.edge_ok = working, .length = test::test_length()});
    const std::vector<double> residual = test::test_residual(g);
    // Full-tree reference: the residual skip folded into the edge filter.
    const GraphView skipped = GraphView::build(
        g, {.edge_ok =
                [&](EdgeId e) {
                  return working(e) &&
                         residual[static_cast<std::size_t>(e)] > 1e-9;
                },
            .length = test::test_length()});
    const auto last = static_cast<NodeId>(g.num_nodes() - 1);
    for (NodeId s = 0; s < 12; s += 3) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " source " +
                   std::to_string(s));
      const ShortestPathTree full = dijkstra(skipped, s);
      // Duplicates, the source itself, and (often) unreachable nodes.
      const std::vector<NodeId> targets = {last, 5, s, last, 17, 5};
      const ShortestPathTree stopped =
          dijkstra_residual_to(view, s, targets, residual);
      for (const NodeId t : targets) {
        EXPECT_EQ(bits_of(stopped.path_to(g, t)), bits_of(full.path_to(g, t)))
            << "target " << t;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      stopped.distance[static_cast<std::size_t>(t)]),
                  std::bit_cast<std::uint64_t>(
                      full.distance[static_cast<std::size_t>(t)]))
            << "target " << t;
      }
      // A one-element set agrees too.
      const std::vector<NodeId> one = {17};
      EXPECT_EQ(bits_of(dijkstra_residual_to(view, s, one, residual)
                            .path_to(g, 17)),
                bits_of(full.path_to(g, 17)));
    }
  }
}

TEST(Dijkstra, EarlyStopShortestPathMatchesFullTree) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = test::broken_er(seed);
    const GraphView view = GraphView::build(
        g, {.edge_ok = working_edge_filter(g), .length = test::test_length()});
    for (NodeId s = 0; s < static_cast<NodeId>(g.num_nodes()); s += 5) {
      const ShortestPathTree full = dijkstra(view, s);
      for (NodeId t = 0; t < static_cast<NodeId>(g.num_nodes()); ++t) {
        EXPECT_EQ(bits_of(shortest_path(view, s, t)),
                  bits_of(full.path_to(g, t)))
            << "seed " << seed << " pair " << s << "-" << t;
      }
    }
  }
}

TEST(Gml, RoundTripPreservesEverything) {
  Builder builder;
  builder.add_node("n0", -73.5, 45.5);
  for (int i = 1; i < 4; ++i) builder.add_node("n" + std::to_string(i));
  builder.add_edge(0, 1, 10.0, 2.5);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  Graph g = builder.finalize();
  g.set_node_broken(1, true);
  g.set_edge_broken(2, true);

  const Graph h = parse_gml(to_gml(g));
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  EXPECT_TRUE(h.node_broken(1));
  EXPECT_TRUE(h.edge_broken(2));
  EXPECT_DOUBLE_EQ(h.node_x(0), -73.5);
  EXPECT_DOUBLE_EQ(h.edge_repair_cost(0), 2.5);
  EXPECT_EQ(h.node_name(2), "n2");
}

TEST(Gml, ParsesTopologyZooStyle) {
  const std::string text = R"(
# Topology Zoo style excerpt
graph [
  directed 0
  label "Toy"
  node [ id 10 label "Montreal" Longitude -73.57 Latitude 45.50 ]
  node [ id 20 label "Toronto"  Longitude -79.38 Latitude 43.65 ]
  edge [ source 10 target 20 LinkSpeed 30 ]
]
)";
  const Graph g = parse_gml(text);
  ASSERT_EQ(g.num_nodes(), 2u);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.node_name(0), "Montreal");
  EXPECT_NEAR(g.node_x(0), -73.57, 1e-9);
  EXPECT_NEAR(g.edge_capacity(0), 30.0, 1e-9);
}

TEST(Gml, RejectsMalformedInput) {
  EXPECT_THROW(parse_gml("nothing here"), std::runtime_error);
  EXPECT_THROW(parse_gml("graph [ node [ id 1 ]"), std::runtime_error);
  EXPECT_THROW(parse_gml("graph [ edge [ source 1 target 2 ] ]"),
               std::runtime_error);
}

}  // namespace
}  // namespace netrec::graph
