// Tests for Brandes betweenness and the repair-scheduling module, plus the
// betweenness-ranking ISP ablation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/isp.hpp"
#include "core/repair_state.hpp"
#include "golden.hpp"
#include "graph/betweenness.hpp"
#include "graph/builder.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/schedule.hpp"
#include "mcf/routing.hpp"
#include "referees.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace netrec {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

TEST(Betweenness, PathGraphCenterDominates) {
  graph::Builder builder;
  for (int i = 0; i < 5; ++i) builder.add_node();
  for (int i = 0; i + 1 < 5; ++i) builder.add_edge(i, i + 1, 1.0);
  Graph g = builder.finalize();
  const auto c = graph::betweenness_centrality(graph::GraphView::build(g));
  // Known values on P5: endpoints 0, then 3, 4, 3.
  EXPECT_NEAR(c[0], 0.0, 1e-9);
  EXPECT_NEAR(c[1], 3.0, 1e-9);
  EXPECT_NEAR(c[2], 4.0, 1e-9);
  EXPECT_NEAR(c[3], 3.0, 1e-9);
  EXPECT_NEAR(c[4], 0.0, 1e-9);
}

TEST(Betweenness, StarHubTakesEverything) {
  graph::Builder builder;
  for (int i = 0; i < 5; ++i) builder.add_node();
  for (int leaf = 1; leaf < 5; ++leaf) builder.add_edge(0, leaf, 1.0);
  Graph g = builder.finalize();
  const auto c = graph::betweenness_centrality(graph::GraphView::build(g));
  EXPECT_NEAR(c[0], 6.0, 1e-9);  // C(4,2) leaf pairs
  for (int leaf = 1; leaf < 5; ++leaf) EXPECT_NEAR(c[leaf], 0.0, 1e-9);
}

TEST(Betweenness, SplitsAcrossEqualShortestPaths) {
  // 4-cycle: each pair of opposite nodes has two shortest paths; every node
  // carries half a pair -> betweenness 0.5 each.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  builder.add_edge(2, 3, 1.0);
  builder.add_edge(3, 0, 1.0);
  Graph g = builder.finalize();
  const auto c = graph::betweenness_centrality(graph::GraphView::build(g));
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(c[i], 0.5, 1e-9);
}

TEST(Betweenness, RespectsWeightsAndFilters) {
  // Triangle with one heavy edge: shortest 0-2 route goes via 1.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  const EdgeId heavy = builder.add_edge(0, 2, 1.0);
  Graph g = builder.finalize();
  auto weights = [&](EdgeId e) { return e == heavy ? 10.0 : 1.0; };
  const auto view = graph::GraphView::build(g, {.length = weights});
  const auto c = graph::betweenness_centrality(view);
  EXPECT_NEAR(c[1], 1.0, 1e-9);
  // Filtering out the light edges isolates the pairs through `heavy`.
  graph::ViewConfig heavy_only;
  heavy_only.edge_ok = [&](EdgeId e) { return e == heavy; };
  heavy_only.length = weights;
  const auto heavy_view = graph::GraphView::build(g, heavy_only);
  const auto filtered = graph::betweenness_centrality(heavy_view);
  EXPECT_NEAR(filtered[1], 0.0, 1e-9);
}

TEST(IspAblation, BetweennessRankingStillSatisfiesDemand) {
  core::RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 2, 20.0);
  builder.add_edge(1, 2, 20.0);
  builder.add_edge(2, 3, 20.0);
  builder.add_edge(3, 4, 20.0);
  builder.add_edge(3, 5, 20.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 4, 5.0}, {1, 5, 5.0}};
  core::IspOptions opt;
  opt.use_classic_betweenness = true;
  const auto s = core::IspSolver(p, opt).solve();
  EXPECT_NEAR(s.satisfied_fraction, 1.0, 1e-6);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
}

// --- scheduling -------------------------------------------------------------

core::RecoveryProblem scheduled_instance() {
  core::RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node("n" + std::to_string(i));
  // Two demands with disjoint 2-hop routes.
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(3, 4, 10.0);
  builder.add_edge(4, 5, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 2, 8.0}, {3, 5, 2.0}};
  return p;
}

TEST(Schedule, ContainsEveryRepairExactlyOnce) {
  const auto p = scheduled_instance();
  const auto plan = core::IspSolver(p).solve();
  const auto schedule = heuristics::schedule_repairs(p, plan);
  EXPECT_EQ(schedule.steps.size(), plan.total_repairs());
  std::size_t nodes = 0;
  std::size_t edges = 0;
  for (const auto& step : schedule.steps) {
    (step.is_node ? nodes : edges) += 1;
    EXPECT_FALSE(step.label.empty());
  }
  EXPECT_EQ(nodes, plan.repaired_nodes.size());
  EXPECT_EQ(edges, plan.repaired_edges.size());
}

TEST(Schedule, RestorationIsMonotoneAndEndsComplete) {
  const auto p = scheduled_instance();
  const auto plan = core::IspSolver(p).solve();
  const auto series = heuristics::exact_restored_series(
      p, plan, heuristics::schedule_repairs(p, plan));
  ASSERT_FALSE(series.empty());
  double prev = 0.0;
  for (const double restored : series) {
    EXPECT_GE(restored, prev - 1e-9);
    prev = restored;
  }
  EXPECT_NEAR(series.back(), p.total_demand(), 1e-6);
}

TEST(Schedule, GreedyPrefersTheBiggerDemandFirst) {
  // Both routes cost 5 repairs; demand (0,2)=8 vs (3,5)=2 -> the greedy
  // schedule restores the 8-unit service first.
  const auto p = scheduled_instance();
  const auto plan = core::IspSolver(p).solve();
  const auto series = heuristics::exact_restored_series(
      p, plan, heuristics::schedule_repairs(p, plan));
  const std::size_t to_80pct =
      util::steps_to_fraction(series, p.total_demand(), 0.8);
  EXPECT_LE(to_80pct, 5u);  // the first completed route already gives 80%
  // AUC strictly better than the worst possible order (big demand last).
  EXPECT_GT(util::restoration_auc(series, p.total_demand()), 0.3);
}

TEST(Schedule, EmptySolutionYieldsEmptySchedule) {
  const auto p = scheduled_instance();
  core::RecoverySolution none;
  core::score_solution(p, none);
  const auto schedule = heuristics::schedule_repairs(p, none);
  EXPECT_TRUE(schedule.steps.empty());
  // An empty plan on a damaged instance restored nothing; the AUC must say
  // so (it used to score the degenerate series as a perfect 1.0).
  EXPECT_DOUBLE_EQ(schedule.restoration_auc(), 0.0);
  EXPECT_EQ(schedule.steps_to_restore(0.5), 1u);
}

/// The last point of the schedule's greedy series, and of the exact
/// referee series over the same schedule, is the solution's referee value:
/// bit for bit an exact max_routed_flow on the graph that the schedule's
/// steps repair.
void expect_last_point_is_referee(const core::RecoveryProblem& p,
                                  const core::RecoverySolution& solution,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  const auto schedule = heuristics::schedule_repairs(p, solution);
  ASSERT_EQ(schedule.steps.size(), solution.total_repairs());
  if (schedule.steps.empty()) return;
  core::RepairState repaired(p.graph);
  for (const auto& step : schedule.steps) {
    if (step.is_node) {
      repaired.repair_node(step.node);
    } else {
      repaired.repair_edge(step.edge);
    }
  }
  const double referee =
      mcf::max_routed_flow(
          graph::GraphView::build(p.graph,
                                  {.edge_ok = repaired.edge_filter()}),
          p.demands)
          .total_routed;
  const std::pair<const char*, std::vector<double>> series[] = {
      {"greedy", schedule.restored_series()},
      {"exact", heuristics::exact_restored_series(p, solution, schedule)}};
  for (const auto& [name, values] : series) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(values.back()),
              std::bit_cast<std::uint64_t>(referee))
        << name;
  }
}

TEST(Schedule, LastPointIsTheRefereeOfScoredSolutions) {
  std::vector<std::pair<std::string, core::RecoveryProblem>> problems;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    problems.emplace_back("er " + std::to_string(seed),
                          test::er_scenario(seed));
    problems.emplace_back("bell-canada " + std::to_string(seed),
                          test::bell_canada_scenario(seed));
  }
  problems.emplace_back("caida-lazy 1", test::caida_lazy_scenario(1));
  problems.emplace_back("caida-lazy 2", test::caida_lazy_scenario(2));
  for (const auto& [name, p] : problems) {
    expect_last_point_is_referee(p, core::IspSolver(p).solve(), name + " isp");
    expect_last_point_is_referee(p, heuristics::solve_srt(p), name + " srt");
  }
}

TEST(Schedule, RejectsAnUnscoredSolution) {
  const auto p = scheduled_instance();
  core::RecoverySolution unscored = core::IspSolver(p).solve();
  unscored.routing = {};
  EXPECT_THROW(heuristics::schedule_repairs(p, unscored),
               std::invalid_argument);
}

TEST(Schedule, AucInUnitInterval) {
  const auto p = scheduled_instance();
  const auto plan = core::IspSolver(p).solve();
  const auto schedule = heuristics::schedule_repairs(p, plan);
  EXPECT_GE(schedule.restoration_auc(), 0.0);
  EXPECT_LE(schedule.restoration_auc(), 1.0);
}

}  // namespace
}  // namespace netrec
