// Steiner tree/forest tests: hand-checked instances plus a brute-force
// cross-check (enumerate edge subsets) on random small graphs.  The
// SteinerTree cases are forests of one pair or of star pairs, which span a
// single tree.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/builder.hpp"
#include "referees.hpp"
#include "steiner/steiner.hpp"
#include "util/rng.hpp"

namespace netrec::steiner {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

graph::EdgeWeight unit_edges() {
  return [](EdgeId) { return 1.0; };
}
NodeCost unit_nodes() {
  return [](NodeId) { return 1.0; };
}
NodeCost free_nodes() {
  return [](NodeId) { return 0.0; };
}

TEST(SteinerTree, TwoTerminalsIsShortestPath) {
  // 0-1-2 (2 edges) vs direct 0-2 with edge cost 3 via weights.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  const EdgeId direct = builder.add_edge(0, 2, 1.0);
  Graph g = builder.finalize();
  auto cost = [&](EdgeId e) { return e == direct ? 3.0 : 1.0; };
  const auto r = steiner_forest(g, {{0, 2}}, cost, free_nodes());
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.cost, 2.0, 1e-9);
  EXPECT_EQ(r.edges.size(), 2u);
}

TEST(SteinerTree, StarUsesSteinerPoint) {
  // Terminals 1,2,3 around hub 0 as star pairs (1,2), (1,3); pairwise
  // paths cost 2 via hub.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(0, 2, 1.0);
  builder.add_edge(0, 3, 1.0);
  Graph g = builder.finalize();
  const auto r = steiner_forest(g, {{1, 2}, {1, 3}}, unit_edges(),
                                free_nodes());
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.cost, 3.0, 1e-9);  // the three spokes
  EXPECT_EQ(r.edges.size(), 3u);
  EXPECT_EQ(r.nodes.size(), 4u);  // includes the hub as a Steiner point
}

TEST(SteinerTree, NodeCostsCountEachNodeOnce) {
  // Path 0-1-2: tree cost = 2 edges + 3 nodes = 5 with unit costs.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  Graph g = builder.finalize();
  const auto r = steiner_forest(g, {{0, 2}}, unit_edges(), unit_nodes());
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.cost, 5.0, 1e-9);
}

TEST(SteinerTree, ExpensiveNodeAvoided) {
  // Two routes 0-1-3 and 0-2-3; node 1 costs 10 -> route via 2.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 3, 1.0);
  builder.add_edge(0, 2, 1.0);
  builder.add_edge(2, 3, 1.0);
  Graph g = builder.finalize();
  auto node_cost = [](NodeId n) { return n == 1 ? 10.0 : 1.0; };
  const auto r = steiner_forest(g, {{0, 3}}, unit_edges(), node_cost);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.cost, 2.0 + 3.0, 1e-9);
  for (NodeId n : r.nodes) EXPECT_NE(n, 1);
}

TEST(SteinerTree, DisconnectedTerminalsFail) {
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  Graph g = builder.finalize();
  const auto r = steiner_forest(g, {{0, 1}}, unit_edges(), free_nodes());
  EXPECT_FALSE(r.solved);
}

TEST(SteinerForest, SeparatePairsStaySeparate) {
  // Two far-apart pairs with a long bridge: forest keeps two components.
  //  0-1   2-3  bridged by 1-4-5-2 (3 extra edges).
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(2, 3, 1.0);
  builder.add_edge(1, 4, 1.0);
  builder.add_edge(4, 5, 1.0);
  builder.add_edge(5, 2, 1.0);
  Graph g = builder.finalize();
  const auto r = steiner_forest(g, {{0, 1}, {2, 3}}, unit_edges(),
                                free_nodes());
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.cost, 2.0, 1e-9);  // just the two pair edges
  EXPECT_EQ(r.edges.size(), 2u);
}

TEST(SteinerForest, SharedCorridorMergesGroups) {
  //  0   3      Pairs (0,3) and (1,4) both need corridor 2-5:
  //   . /       merging into one tree is cheaper than two disjoint trees.
  //    2
  //    |
  //    5
  //   / .
  //  1   4
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 2, 1.0);
  builder.add_edge(3, 2, 1.0);
  builder.add_edge(2, 5, 1.0);
  builder.add_edge(5, 1, 1.0);
  builder.add_edge(5, 4, 1.0);
  Graph g = builder.finalize();
  const auto r = steiner_forest(g, {{0, 3}, {1, 4}}, unit_edges(),
                                free_nodes());
  ASSERT_TRUE(r.solved);
  // (0,3) via 2: edges 0-2,3-2 = 2.  (1,4) via 5: edges 1-5,4-5 = 2.
  // Separate groups cost 4; nothing cheaper exists.
  EXPECT_NEAR(r.cost, 4.0, 1e-9);
}

TEST(SteinerForest, EmptyAndDegeneratePairs) {
  graph::Builder builder;
  builder.add_node();
  Graph g = builder.finalize();
  const auto empty = steiner_forest(g, {}, unit_edges(), free_nodes());
  EXPECT_TRUE(empty.solved);
  EXPECT_EQ(empty.cost, 0.0);
  const auto self = steiner_forest(g, {{0, 0}}, unit_edges(), free_nodes());
  EXPECT_TRUE(self.solved);
  EXPECT_EQ(self.cost, 0.0);
}

// --- brute force cross-check ------------------------------------------------

/// Minimum-cost connected-per-pair edge subset by enumeration (tiny graphs).
double brute_force_forest(const Graph& g,
                          const std::vector<std::pair<NodeId, NodeId>>& pairs,
                          const graph::EdgeWeight& edge_cost,
                          const NodeCost& node_cost) {
  const int m = static_cast<int>(g.num_edges());
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << m); ++mask) {
    graph::ViewConfig in_mask;
    in_mask.edge_ok = [mask](EdgeId e) { return ((mask >> e) & 1) != 0; };
    const auto view = graph::GraphView::build(g, in_mask);
    bool all_connected = true;
    for (const auto& [a, b] : pairs) {
      if (!graph::reachable(view, a, b)) {
        all_connected = false;
        break;
      }
    }
    if (!all_connected) continue;
    double cost = 0.0;
    std::vector<char> node_used(g.num_nodes(), 0);
    for (int e = 0; e < m; ++e) {
      if (!((mask >> e) & 1)) continue;
      cost += edge_cost(static_cast<EdgeId>(e));
      node_used[static_cast<std::size_t>(g.edge_u(e))] = 1;
      node_used[static_cast<std::size_t>(g.edge_v(e))] = 1;
    }
    for (const auto& [a, b] : pairs) {
      node_used[static_cast<std::size_t>(a)] = 1;
      node_used[static_cast<std::size_t>(b)] = 1;
    }
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      if (node_used[n]) cost += node_cost(static_cast<NodeId>(n));
    }
    best = std::min(best, cost);
  }
  return best;
}

class SteinerRandom : public ::testing::TestWithParam<int> {};

TEST_P(SteinerRandom, MatchesBruteForceOnSmallGraphs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const int n = 6;
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node();
  std::vector<double> ecost;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(0.5)) {
        builder.add_edge(i, j, 1.0);
        ecost.push_back(rng.uniform(0.5, 3.0));
      }
    }
  }
  const Graph g = builder.finalize();
  if (g.num_edges() > 14) return;  // keep brute force fast
  std::vector<double> ncost;
  for (int i = 0; i < n; ++i) ncost.push_back(rng.uniform(0.0, 2.0));
  auto edge_cost = [&](EdgeId e) {
    return ecost[static_cast<std::size_t>(e)];
  };
  auto node_cost = [&](NodeId v) {
    return ncost[static_cast<std::size_t>(v)];
  };
  std::vector<std::pair<NodeId, NodeId>> pairs;
  const int num_pairs = static_cast<int>(rng.uniform_int(1, 2));
  for (int k = 0; k < num_pairs; ++k) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b) pairs.emplace_back(a, b);
  }
  if (pairs.empty()) return;

  const double reference = brute_force_forest(g, pairs, edge_cost, node_cost);
  const auto r = steiner_forest(g, pairs, edge_cost, node_cost);
  if (std::isinf(reference)) {
    EXPECT_FALSE(r.solved);
  } else {
    ASSERT_TRUE(r.solved) << "seed " << GetParam();
    EXPECT_NEAR(r.cost, reference, 1e-6) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SteinerRandom, ::testing::Range(0, 40));

}  // namespace
}  // namespace netrec::steiner
