// Baseline heuristics + OPT driver tests, including cross-algorithm
// dominance properties from the paper's evaluation: OPT <= ISP <= GRD-NC in
// repairs on shared-corridor families; GRD-NC never loses demand on feasible
// instances; SRT can lose demand when shortest paths saturate.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/isp.hpp"
#include "graph/builder.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/local_search.hpp"
#include "heuristics/opt.hpp"
#include "mcf/broken_usage.hpp"
#include "util/rng.hpp"

namespace netrec::heuristics {
namespace {

using core::RecoveryProblem;
using core::RecoverySolution;
using graph::EdgeId;
using graph::NodeId;

RecoveryProblem destroyed_square_with_diagonal() {
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 0, 10.0);
  builder.add_edge(0, 2, 3.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 2, 8.0}};
  return p;
}

TEST(All, RepairsEverythingAndSatisfiesFeasibleDemand) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  const RecoverySolution s = solve_all(p);
  EXPECT_EQ(s.total_repairs(), 4u + 5u);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
}

TEST(Srt, RepairsShortestPathsPerDemand) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  const RecoverySolution s = solve_srt(p);
  // Demand 8 > diagonal capacity 3: SRT needs the diagonal (1 hop) plus one
  // two-hop path.
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
  EXPECT_LE(s.total_repairs(), 7u);
}

TEST(Srt, LosesDemandWhenShortestPathsOverlap) {
  // Two demands whose unique shortest paths share a saturated edge:
  //   0-1-2 is shortest for (0,2); (0,1) also needs edge 0-1.
  //   A long detour exists but SRT never looks at it for (0,1)... actually
  //   SRT covers each demand independently, so it sees full capacity twice.
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 5; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  // Long detour 0-3-4-2 with ample capacity.
  builder.add_edge(0, 3, 10.0);
  builder.add_edge(3, 4, 10.0);
  builder.add_edge(4, 2, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 2, 8.0}, {0, 1, 8.0}};
  const RecoverySolution s = solve_srt(p);
  // Both demands' shortest paths want edge 0-1 (16 > 10): loss expected.
  EXPECT_LT(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
}

TEST(GrdNc, NeverLosesDemandOnFeasibleInstances) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  const RecoverySolution s = solve_grd_nc(p);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
}

TEST(GrdCom, RepairsAndRoutesSimpleInstance) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  p.demands = {{0, 2, 3.0}};  // fits the cheapest single path
  const RecoverySolution s = solve_grd_com(p);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, s).empty());
}

TEST(LocalSearch, DropsRedundantRepairs) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  const RecoverySolution all = solve_all(p);
  const RecoverySolution reduced = reduce_repairs(p, all);
  EXPECT_DOUBLE_EQ(reduced.satisfied_fraction, 1.0);
  EXPECT_LT(reduced.total_repairs(), all.total_repairs());
  EXPECT_TRUE(core::validate_solution(p, reduced).empty());
  // Demand 8 needs one 10-capacity route: 2 edges + 3 nodes = 5 repairs.
  EXPECT_EQ(reduced.total_repairs(), 5u);
}

TEST(LocalSearch, LeavesLossyInputAlone) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  RecoverySolution nothing;
  nothing.algorithm = "NOOP";
  core::score_solution(p, nothing);
  const RecoverySolution reduced = reduce_repairs(p, nothing);
  EXPECT_EQ(reduced.total_repairs(), 0u);
}

TEST(Opt, SteinerEngineOnConnectivityOnlyInstance) {
  // Unit demand, huge capacities: connectivity-only.
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 5; ++i) builder.add_node();
  builder.add_edge(0, 1, 100.0);
  builder.add_edge(1, 2, 100.0);
  builder.add_edge(2, 3, 100.0);
  builder.add_edge(3, 4, 100.0);
  builder.add_edge(0, 4, 100.0);  // shortcut!
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 4, 1.0}};
  ASSERT_TRUE(is_connectivity_only(p));
  const OptOutcome r = solve_opt(p);
  EXPECT_STREQ(r.engine, "steiner");
  EXPECT_TRUE(r.proven_optimal);
  // Shortcut: 1 edge + 2 nodes = 3 repairs.
  EXPECT_EQ(r.solution.total_repairs(), 3u);
  EXPECT_DOUBLE_EQ(r.solution.satisfied_fraction, 1.0);
}

TEST(Opt, MilpProvesOptimumOnCapacitatedInstance) {
  RecoveryProblem p = destroyed_square_with_diagonal();  // demand 8 > 3
  ASSERT_FALSE(is_connectivity_only(p));
  OptOptions opt;
  opt.time_limit_seconds = 20.0;
  const OptOutcome r = solve_opt(p, opt);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.solution.satisfied_fraction, 1.0);
  EXPECT_EQ(r.solution.total_repairs(), 5u);  // one 10-capacity route
  EXPECT_TRUE(core::validate_solution(p, r.solution).empty());
}

TEST(Opt, NeverWorseThanIspOnSharedCorridor) {
  RecoveryProblem p;
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
  core::IspSolver isp(p);
  const RecoverySolution isp_solution = isp.solve();
  OptOptions opt;
  opt.time_limit_seconds = 20.0;
  const OptOutcome r = solve_opt(p, opt, &isp_solution);
  EXPECT_LE(r.solution.repair_cost, isp_solution.repair_cost + 1e-9);
  EXPECT_DOUBLE_EQ(r.solution.satisfied_fraction, 1.0);
}

TEST(Multicommodity, BandBracketsBetweenSomethingAndAll) {
  RecoveryProblem p = destroyed_square_with_diagonal();
  util::Rng rng(17);
  const mcf::OptimalFaceBand band =
      mcf::explore_optimal_face(p.graph, p.demands, 6, rng);
  ASSERT_TRUE(band.feasible);
  EXPECT_GE(band.worst_repairs, band.best_repairs);
  EXPECT_LE(band.worst_repairs, 9u);  // can't exceed ALL
  EXPECT_GE(band.best_repairs, 1u);  // complete destruction: must repair some
}

// Dominance sweep across random shared-corridor instances.
class HeuristicOrdering : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicOrdering, OptLeIspAndNoIspLoss) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) *
                    6364136223846793005ULL +
                1442695040888963407ULL);
  RecoveryProblem p;
  const int n = static_cast<int>(rng.uniform_int(6, 10));
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node();
  std::set<std::uint64_t> placed;
  for (int i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.uniform_int(0, i - 1));
    builder.add_edge(parent, i, 20.0);
    placed.insert(graph::endpoint_key(parent, i));
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b && placed.insert(graph::endpoint_key(a, b)).second) {
      builder.add_edge(a, b, 20.0);
    }
  }
  p.graph = builder.finalize();
  p.graph.break_everything();
  for (int k = 0; k < 2; ++k) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (s != t) p.demands.push_back({s, t, rng.uniform(2.0, 8.0)});
  }
  if (p.demands.empty()) return;
  ASSERT_TRUE(p.feasible_when_fully_repaired());

  core::IspSolver isp(p);
  const RecoverySolution isp_solution = isp.solve();
  EXPECT_NEAR(isp_solution.satisfied_fraction, 1.0, 1e-6);

  OptOptions opt;
  opt.time_limit_seconds = 5.0;
  const OptOutcome best = solve_opt(p, opt, &isp_solution);
  EXPECT_LE(best.solution.repair_cost, isp_solution.repair_cost + 1e-9)
      << "seed " << GetParam();
  EXPECT_NEAR(best.solution.satisfied_fraction, 1.0, 1e-6);
  EXPECT_TRUE(core::validate_solution(p, best.solution).empty());
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, HeuristicOrdering,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace netrec::heuristics
