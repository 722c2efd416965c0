// ISP algorithm tests (paper Section IV-V).
//
// Correctness invariants asserted here:
//  * on feasible instances ISP satisfies the full demand (Theorem 4 +
//    "no demand loss" claims in Section VII);
//  * repairs are a subset of broken elements and the routing referee
//    validates end to end;
//  * ISP repairs (weakly) less than repairing everything and concentrates
//    shared demand, matching the Section IV design intent;
//  * termination within the iteration budget across a randomised sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/isp.hpp"
#include "core/problem.hpp"
#include "graph/builder.hpp"
#include "mcf/routing.hpp"
#include "util/rng.hpp"

namespace netrec::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

RecoveryProblem destroyed_path(int n, double cap, double demand) {
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node();
  for (int i = 0; i + 1 < n; ++i) builder.add_edge(i, i + 1, cap);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, static_cast<NodeId>(n - 1), demand}};
  return p;
}

TEST(Isp, RepairsExactlyThePathOnALine) {
  RecoveryProblem p = destroyed_path(4, 10.0, 5.0);
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_TRUE(s.instance_feasible);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_EQ(s.repaired_nodes.size(), 4u);
  EXPECT_EQ(s.repaired_edges.size(), 3u);
  EXPECT_TRUE(validate_solution(p, s).empty());
}

TEST(Isp, NoRepairsWhenNetworkIsIntact) {
  RecoveryProblem p = destroyed_path(4, 10.0, 5.0);
  for (NodeId n : p.graph.broken_nodes()) p.graph.set_node_broken(n, false);
  for (EdgeId e : p.graph.broken_edges()) p.graph.set_edge_broken(e, false);
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_EQ(s.total_repairs(), 0u);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
}

TEST(Isp, ReusesWorkingIslandInTheMiddle) {
  // 0-1-2-3-4 destroyed except node 2 and nothing else: ISP must still
  // repair the rest; but if edges 1-2,2-3 and nodes 1,2,3 work, only the
  // outer pieces are repaired.
  RecoveryProblem p = destroyed_path(5, 10.0, 5.0);
  p.graph.set_node_broken(1, false);
  p.graph.set_node_broken(2, false);
  p.graph.set_node_broken(3, false);
  p.graph.set_edge_broken(1, false);  // 1-2
  p.graph.set_edge_broken(2, false);  // 2-3
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_EQ(s.repaired_nodes.size(), 2u);  // 0 and 4
  EXPECT_EQ(s.repaired_edges.size(), 2u);  // 0-1 and 3-4
  EXPECT_TRUE(validate_solution(p, s).empty());
}

TEST(Isp, ConcentratesTwoDemandsOnSharedCorridor) {
  //  0          5
  //   \        /
  //    2 ---- 3          All broken.  Demands (0,4) and (1,5), 5 units each,
  //   /        \         corridor capacity 20: sharing 2-3 is optimal
  //  1          4        (7 nodes... 6 nodes + 5 edges around the corridor).
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_edge(0, 2, 20.0);
  builder.add_edge(1, 2, 20.0);
  builder.add_edge(2, 3, 20.0);
  builder.add_edge(3, 4, 20.0);
  builder.add_edge(3, 5, 20.0);
  // Expensive private bypass that a naive shortest-path approach might use.
  builder.add_edge(0, 4, 20.0, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 4, 5.0}, {1, 5, 5.0}};

  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(validate_solution(p, s).empty());
  // Shared corridor solution: 6 nodes + 5 edges = 11 repairs, cost 11.
  // Using the bypass instead costs >= 19.
  EXPECT_LE(s.repair_cost, 11.0 + 1e-9);
  EXPECT_EQ(s.total_repairs(), 11u);
}

TEST(Isp, SplitsDemandAcrossParallelRoutesWhenCapacityForces) {
  // Demand 15 exceeds any single route (capacity 10): ISP must split.
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 3, 10.0);
  builder.add_edge(0, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 3, 15.0}};
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(validate_solution(p, s).empty());
  // Needs both routes: all 4 nodes + all 4 edges.
  EXPECT_EQ(s.total_repairs(), 8u);
}

TEST(Isp, PrunesDemandsSatisfiedByWorkingNetwork) {
  // Network intact except one far-away broken node irrelevant to the demand.
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 5; ++i) builder.add_node();  // node 4: isolated
  for (int i = 0; i + 1 < 4; ++i) builder.add_edge(i, i + 1, 10.0);
  p.graph = builder.finalize();
  p.graph.set_node_broken(4, true);
  p.demands = {{0, 3, 5.0}};
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_EQ(s.total_repairs(), 0u);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
  EXPECT_GE(solver.stats().prunes + 1, 1u);  // pruned or routable directly
}

TEST(Isp, InfeasibleInstanceIsFlaggedAndBestEffort) {
  RecoveryProblem p = destroyed_path(3, 2.0, 5.0);  // demand > capacity
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_FALSE(s.instance_feasible);
  EXPECT_LT(s.satisfied_fraction, 1.0);
  EXPECT_TRUE(validate_solution(p, s).empty());  // still a valid partial
}

TEST(Isp, RepairsNothingForEmptyDemand) {
  RecoveryProblem p = destroyed_path(4, 10.0, 5.0);
  p.demands.clear();
  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_EQ(s.total_repairs(), 0u);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
}

TEST(Isp, TraceRecordsActions) {
  RecoveryProblem p = destroyed_path(4, 10.0, 5.0);
  IspSolver solver(p);
  solver.set_trace(true);
  (void)solver.solve();
  EXPECT_FALSE(solver.stats().events.empty());
  for (const auto& ev : solver.stats().events) {
    EXPECT_FALSE(ev.to_string().empty());
  }
}

// --- randomised sweep: ISP invariants on feasible instances ---------------

class IspRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(IspRandomSweep, FeasibleInstancesAreFullySatisfied) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  // Random connected graph with generous capacities.
  const int n = static_cast<int>(rng.uniform_int(6, 14));
  RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node();
  std::set<std::uint64_t> placed;
  for (int i = 1; i < n; ++i) {
    // Random spanning tree + extra edges.
    const auto parent = static_cast<NodeId>(rng.uniform_int(0, i - 1));
    builder.add_edge(parent, i, rng.uniform(8.0, 20.0));
    placed.insert(graph::endpoint_key(parent, i));
  }
  for (int extra = 0; extra < n; ++extra) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (a != b && placed.insert(graph::endpoint_key(a, b)).second) {
      builder.add_edge(a, b, rng.uniform(8.0, 20.0));
    }
  }
  p.graph = builder.finalize();
  // Random disruption (possibly total).
  const double destroy = rng.uniform(0.3, 1.0);
  for (std::size_t i = 0; i < p.graph.num_nodes(); ++i) {
    if (rng.chance(destroy)) p.graph.set_node_broken(static_cast<NodeId>(i), true);
  }
  for (std::size_t e = 0; e < p.graph.num_edges(); ++e) {
    if (rng.chance(destroy)) p.graph.set_edge_broken(static_cast<EdgeId>(e), true);
  }
  // A few small far-apart demands (kept below min capacity so instances stay
  // feasible by construction).
  const int pairs = static_cast<int>(rng.uniform_int(1, 3));
  for (int k = 0; k < pairs; ++k) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    if (s != t) p.demands.push_back({s, t, rng.uniform(1.0, 3.0)});
  }
  if (p.demands.empty()) return;
  ASSERT_TRUE(p.feasible_when_fully_repaired());

  IspSolver solver(p);
  const RecoverySolution s = solver.solve();
  EXPECT_TRUE(s.instance_feasible);
  EXPECT_NEAR(s.satisfied_fraction, 1.0, 1e-6)
      << "seed " << GetParam() << ": ISP lost demand on feasible instance";
  EXPECT_TRUE(validate_solution(p, s).empty());
  EXPECT_LE(s.total_repairs(),
            p.graph.num_broken_nodes() + p.graph.num_broken_edges());
  EXPECT_LT(solver.stats().iterations, 5000u);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, IspRandomSweep,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace netrec::core
