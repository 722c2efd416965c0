// Tests for the core module: repair bookkeeping, demand-based centrality
// (eq. 3) and problem scoring/validation.
#include <gtest/gtest.h>

#include "core/centrality.hpp"
#include "core/problem.hpp"
#include "core/repair_state.hpp"
#include "graph/builder.hpp"
#include "mcf/routing.hpp"

namespace netrec::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Centrality over a snapshot with the given lengths and static capacities.
CentralityResult centrality_of(const Graph& g,
                               const std::vector<mcf::Demand>& demands,
                               const graph::EdgeWeight& length) {
  return demand_based_centrality(graph::GraphView::build(g, {.length = length}),
                                 demands);
}

Graph path_graph(int n, double capacity = 10.0) {
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node("p" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) builder.add_edge(i, i + 1, capacity);
  return builder.finalize();
}

TEST(RepairState, TracksRepairsAndCosts) {
  Graph g = path_graph(3);
  g.break_everything();
  g.set_node_repair_cost(1, 4.0);
  RepairState state(g);
  EXPECT_FALSE(state.node_ok(0));
  EXPECT_TRUE(state.repair_node(0));
  EXPECT_FALSE(state.repair_node(0));  // already repaired
  EXPECT_TRUE(state.node_ok(0));
  EXPECT_FALSE(state.edge_ok(0));  // endpoint 1 still broken
  EXPECT_TRUE(state.repair_node(1));
  EXPECT_TRUE(state.repair_edge(0));
  EXPECT_TRUE(state.edge_ok(0));
  EXPECT_DOUBLE_EQ(state.repair_cost(), 1.0 + 4.0 + 1.0);
  EXPECT_EQ(state.total_repairs(), 3u);
}

TEST(RepairState, RepairingWorkingElementsIsANoop) {
  Graph g = path_graph(3);
  RepairState state(g);
  EXPECT_FALSE(state.repair_node(0));
  EXPECT_FALSE(state.repair_edge(0));
  EXPECT_EQ(state.total_repairs(), 0u);
  EXPECT_TRUE(state.edge_ok(0));
}

TEST(RepairState, RepairPathRepairsAllElements) {
  Graph g = path_graph(4);
  g.break_everything();
  RepairState state(g);
  graph::Path p;
  p.start = 0;
  p.edges = {0, 1, 2};
  state.repair_path(p);
  EXPECT_EQ(state.repaired_nodes().size(), 4u);
  EXPECT_EQ(state.repaired_edges().size(), 3u);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_TRUE(state.edge_ok(e));
}

TEST(Centrality, MiddleNodeDominatesOnPathGraph) {
  Graph g = path_graph(5);
  const std::vector<mcf::Demand> demands{{0, 4, 5.0}};
  auto ones = [](EdgeId) { return 1.0; };
  const auto c = centrality_of(g, demands, ones);
  // Single path: every node on it receives the full demand share.
  for (NodeId v = 0; v <= 4; ++v) EXPECT_NEAR(c.score(v), 5.0, 1e-9);
  EXPECT_EQ(c.contributors(2).size(), 1u);
  EXPECT_NEAR(c.capacity_through(0, 2, g), 10.0, 1e-9);
}

TEST(Centrality, SharedCorridorScoresHigherThanPrivateBranches) {
  //  0        4
  //   \      /
  //    2 -- 3
  //   /      .
  //  1        5    demands (0,4) and (1,5) share corridor 2-3.
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 2, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 4, 10.0);
  builder.add_edge(3, 5, 10.0);
  Graph g = builder.finalize();
  const std::vector<mcf::Demand> demands{{0, 4, 5.0}, {1, 5, 5.0}};
  auto ones = [](EdgeId) { return 1.0; };
  const auto c = centrality_of(g, demands, ones);
  EXPECT_NEAR(c.score(2), 10.0, 1e-9);  // both demands
  EXPECT_NEAR(c.score(3), 10.0, 1e-9);
  EXPECT_NEAR(c.score(0), 5.0, 1e-9);  // own demand only
  EXPECT_EQ(c.contributors(2).size(), 2u);
  EXPECT_EQ(c.contributors(0).size(), 1u);
  const auto ranking = c.ranking();
  EXPECT_TRUE(ranking[0] == 2 || ranking[0] == 3);
}

TEST(Centrality, SplitsShareAcrossParallelPaths) {
  // Two disjoint 2-hop routes between 0 and 3, capacities 9 and 3: demand 12
  // needs both; shares are proportional to path capacity.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 9.0);
  builder.add_edge(1, 3, 9.0);
  builder.add_edge(0, 2, 3.0);
  builder.add_edge(2, 3, 3.0);
  Graph g = builder.finalize();
  const std::vector<mcf::Demand> demands{{0, 3, 12.0}};
  auto ones = [](EdgeId) { return 1.0; };
  const auto c = centrality_of(g, demands, ones);
  EXPECT_NEAR(c.score(1), 9.0, 1e-9);   // 9/12 of 12
  EXPECT_NEAR(c.score(2), 3.0, 1e-9);   // 3/12 of 12
  EXPECT_NEAR(c.score(0), 12.0, 1e-9);  // endpoint on both paths
}

TEST(Centrality, DynamicMetricSteersAwayFromExpensiveRepairs) {
  // Broken expensive shortcut vs working detour: with the dynamic metric the
  // detour is shorter, so the shortcut contributes nothing.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  const EdgeId direct = builder.add_edge(0, 3, 10.0);
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  Graph g = builder.finalize();
  g.set_edge_broken(direct, true);
  g.set_edge_repair_cost(direct, 100.0);
  auto metric = [&g](EdgeId e) {
    return (1.0 + (g.edge_broken(e) ? g.edge_repair_cost(e) : 0.0)) /
           g.edge_capacity(e);
  };
  const std::vector<mcf::Demand> demands{{0, 3, 5.0}};
  const auto c = centrality_of(g, demands, metric);
  EXPECT_NEAR(c.score(1), 5.0, 1e-9);  // detour carries everything
  EXPECT_EQ(c.contributors(1).size(), 1u);
}

TEST(Problem, FeasibilityDetection) {
  RecoveryProblem p;
  p.graph = path_graph(3, 5.0);
  p.graph.break_everything();
  p.demands = {{0, 2, 5.0}};
  EXPECT_TRUE(p.feasible_when_fully_repaired());
  p.demands = {{0, 2, 6.0}};
  EXPECT_FALSE(p.feasible_when_fully_repaired());
}

TEST(Problem, ScoreSolutionMeasuresSatisfaction) {
  RecoveryProblem p;
  p.graph = path_graph(3, 5.0);
  p.graph.break_everything();
  p.demands = {{0, 2, 5.0}};

  RecoverySolution none;
  score_solution(p, none);
  EXPECT_DOUBLE_EQ(none.satisfied_fraction, 0.0);

  RecoverySolution all;
  for (NodeId n = 0; n < 3; ++n) all.repaired_nodes.push_back(n);
  for (EdgeId e = 0; e < 2; ++e) all.repaired_edges.push_back(e);
  score_solution(p, all);
  EXPECT_DOUBLE_EQ(all.satisfied_fraction, 1.0);
  EXPECT_DOUBLE_EQ(all.repair_cost, 5.0);
  EXPECT_TRUE(validate_solution(p, all).empty());
}

TEST(Problem, ValidateRejectsBogusSolutions) {
  RecoveryProblem p;
  p.graph = path_graph(3, 5.0);
  p.graph.set_node_broken(0, true);
  p.demands = {{0, 2, 1.0}};

  RecoverySolution s;
  s.repaired_nodes = {1};  // node 1 is not broken
  EXPECT_FALSE(validate_solution(p, s).empty());

  s.repaired_nodes = {0, 0};  // duplicate
  EXPECT_FALSE(validate_solution(p, s).empty());

  s.repaired_nodes = {0};
  score_solution(p, s);
  EXPECT_TRUE(validate_solution(p, s).empty());
}

}  // namespace
}  // namespace netrec::core
