// Edge-case and failure-path tests across modules: file I/O, infeasible
// instances, iteration limits, degenerate inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/isp.hpp"
#include "graph/builder.hpp"
#include "graph/gml.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/opt.hpp"
#include "heuristics/schedule.hpp"
#include "lp/simplex.hpp"
#include "mcf/routing.hpp"
#include "referees.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace netrec {
namespace {

TEST(GmlFile, RoundTripsThroughDisk) {
  const auto path =
      (std::filesystem::temp_directory_path() / "netrec_gml_test.gml")
          .string();
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  g.set_node_broken(3, true);
  g.set_edge_broken(5, true);
  graph::save_gml_file(g, path);
  const graph::Graph loaded = graph::load_gml_file(path);
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_TRUE(loaded.node_broken(3));
  EXPECT_TRUE(loaded.edge_broken(5));
  EXPECT_EQ(loaded.node_name(0), g.node_name(0));
  std::remove(path.c_str());
}

TEST(GmlFile, MissingFileThrows) {
  EXPECT_THROW(graph::load_gml_file("/nonexistent/netrec.gml"),
               std::runtime_error);
}

TEST(CsvFile, UnwritablePathThrows) {
  EXPECT_THROW(util::CsvWriter("/nonexistent/dir/out.csv"),
               std::runtime_error);
}

TEST(Opt, InfeasibleInstanceIsBestEffortNotCrash) {
  core::RecoveryProblem p;
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  builder.add_edge(0, 1, 1.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 1, 5.0}};  // demand > any capacity
  heuristics::OptOptions oo;
  oo.time_limit_seconds = 2.0;
  const auto r = heuristics::solve_opt(p, oo);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_LT(r.solution.satisfied_fraction, 1.0);
  EXPECT_TRUE(core::validate_solution(p, r.solution).empty());
}

TEST(Opt, EmptyDemandIsTrivial) {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  p.graph.break_everything();
  const auto r = heuristics::solve_opt(p);
  EXPECT_EQ(r.solution.total_repairs(), 0u);
  EXPECT_DOUBLE_EQ(r.solution.satisfied_fraction, 1.0);
}

TEST(Simplex, IterationLimitIsReported) {
  // A valid LP with an absurdly low iteration cap.
  lp::Model m;
  m.goal = lp::Goal::kMaximize;
  util::Rng rng(3);
  const int rows = 12;
  for (int r = 0; r < rows; ++r) {
    m.add_constraint(lp::Sense::kLessEqual, rng.uniform(5.0, 10.0));
  }
  for (int c = 0; c < 30; ++c) {
    const int v = m.add_variable(0.0, lp::kInfinity, rng.uniform(0.5, 2.0));
    for (int r = 0; r < rows; ++r) {
      m.set_coefficient(r, v, rng.uniform(0.1, 1.0));
    }
  }
  lp::SolveOptions opt;
  opt.max_iterations = 1;
  const auto s = lp::solve(m, opt);
  EXPECT_EQ(s.status, lp::SolveStatus::kIterationLimit);
}

TEST(Isp, SingleNodeGraphTerminates) {
  core::RecoveryProblem p;
  graph::Builder builder;
  builder.add_node();
  p.graph = builder.finalize();
  p.graph.set_node_broken(0, true);
  p.demands = {{0, 0, 3.0}};  // self-demand, trivially satisfied
  const auto s = core::IspSolver(p).solve();
  EXPECT_EQ(s.total_repairs(), 0u);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 1.0);
}

TEST(Isp, DisconnectedEndpointsAreInfeasibleNotFatal) {
  core::RecoveryProblem p;
  graph::Builder builder;
  builder.add_node();
  builder.add_node();  // no edges at all
  p.graph = builder.finalize();
  p.demands = {{0, 1, 1.0}};
  const auto s = core::IspSolver(p).solve();
  EXPECT_FALSE(s.instance_feasible);
  EXPECT_DOUBLE_EQ(s.satisfied_fraction, 0.0);
}

TEST(Srt, EmptyDemandRepairsNothing) {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  p.graph.break_everything();
  const auto s = heuristics::solve_srt(p);
  EXPECT_EQ(s.total_repairs(), 0u);
}

TEST(Greedy, NoPathsWithinLimitsMeansNoRepairs) {
  // The only path needs 21 hops, more than the greedy pool enumerates (20).
  constexpr int kNodes = 22;
  core::RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < kNodes; ++i) builder.add_node();
  for (int i = 0; i + 1 < kNodes; ++i) builder.add_edge(i, i + 1, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, kNodes - 1, 2.0}};
  const auto s = heuristics::solve_grd_nc(p);
  EXPECT_EQ(s.total_repairs(), 0u);
  EXPECT_LT(s.satisfied_fraction, 1.0);
}

TEST(Schedule, LeftoverCapacityRepairsAreAppended) {
  // Demand 15 needs both parallel routes; each route completion shows up in
  // the schedule, nothing is dropped.
  core::RecoveryProblem p;
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 3, 10.0);
  builder.add_edge(0, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  p.graph = builder.finalize();
  p.graph.break_everything();
  p.demands = {{0, 3, 15.0}};
  const auto plan = core::IspSolver(p).solve();
  ASSERT_EQ(plan.total_repairs(), 8u);
  const auto schedule = heuristics::schedule_repairs(p, plan);
  EXPECT_EQ(schedule.steps.size(), 8u);
  const auto series = heuristics::exact_restored_series(p, plan, schedule);
  EXPECT_NEAR(series.back(), 15.0, 1e-6);
  // Partial restoration appears mid-schedule (first route = 10 units).
  EXPECT_LE(util::steps_to_fraction(series, 15.0, 10.0 / 15.0), 6u);
}

TEST(Scenario, InfeasibleFactoryIsSkippedGracefully) {
  scenario::RunnerOptions opt;
  opt.runs = 2;
  opt.require_feasible = true;
  const auto result = scenario::run_experiment(
      [](util::Rng&) {
        graph::Builder builder;
        builder.add_node();
        builder.add_node();
        builder.add_edge(0, 1, 1.0);
        core::RecoveryProblem p;
        p.graph = builder.finalize();
        p.demands = {{0, 1, 100.0}};  // never feasible
        return p;
      },
      {{"noop",
        [](const core::RecoveryProblem& problem, scenario::RunContext&) {
          core::RecoverySolution s;
          core::score_solution(problem, s);
          return s;
        }}},
      opt);
  EXPECT_EQ(result.completed_runs, 0u);
}

}  // namespace
}  // namespace netrec
