// End-to-end integration tests over the paper's experiment families —
// miniature versions of the bench sweeps with the orderings the figures
// rely on asserted as invariants.
#include <gtest/gtest.h>

#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/opt.hpp"
#include "graph/traversal.hpp"
#include "mcf/broken_usage.hpp"
#include "mcf/routing.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"

namespace netrec {
namespace {

core::RecoveryProblem bell_instance(int pairs, double flow,
                                    std::uint64_t seed) {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng rng(seed);
  std::size_t redraws = 0;
  do {
    p.demands = scenario::far_apart_demands(
        p.graph, static_cast<std::size_t>(pairs), flow, rng);
  } while (!p.feasible_when_fully_repaired() && ++redraws < 25);
  disruption::complete_destruction(p.graph);
  return p;
}

class BellCanadaSweep : public ::testing::TestWithParam<int> {};

TEST_P(BellCanadaSweep, Fig4OrderingsHold) {
  const int pairs = GetParam();
  const auto p = bell_instance(pairs, 10.0, 100 + pairs);
  ASSERT_TRUE(p.feasible_when_fully_repaired());

  const auto isp = core::IspSolver(p).solve();
  const auto srt = heuristics::solve_srt(p);
  const auto grd_nc = heuristics::solve_grd_nc(p);
  const auto all = heuristics::solve_all(p);

  // ISP: never loses demand on a feasible instance (headline claim).
  EXPECT_NEAR(isp.satisfied_fraction, 1.0, 1e-6);
  // GRD-NC: terminates only when routable -> no loss either.
  EXPECT_NEAR(grd_nc.satisfied_fraction, 1.0, 1e-6);
  // Everybody repairs (weakly) less than ALL.
  EXPECT_LE(isp.total_repairs(), all.total_repairs());
  EXPECT_LE(srt.total_repairs(), all.total_repairs());
  EXPECT_LE(grd_nc.total_repairs(), all.total_repairs());
  // The paper's persistent ordering: ISP <= GRD-NC in repairs.
  EXPECT_LE(isp.total_repairs(), grd_nc.total_repairs());
  // Validity of all outputs.
  EXPECT_TRUE(core::validate_solution(p, isp).empty());
  EXPECT_TRUE(core::validate_solution(p, srt).empty());
  EXPECT_TRUE(core::validate_solution(p, grd_nc).empty());
}

INSTANTIATE_TEST_SUITE_P(Pairs, BellCanadaSweep, ::testing::Values(1, 2, 3, 4));

TEST(BellCanada, OptLowerBoundsIspWithProof) {
  const auto p = bell_instance(2, 10.0, 321);
  const auto isp = core::IspSolver(p).solve();
  heuristics::OptOptions oo;
  oo.time_limit_seconds = 30.0;
  const auto opt = heuristics::solve_opt(p, oo, &isp);
  EXPECT_LE(opt.solution.repair_cost, isp.repair_cost + 1e-9);
  EXPECT_NEAR(opt.solution.satisfied_fraction, 1.0, 1e-6);
  if (opt.proven_optimal) {
    EXPECT_GE(opt.solution.repair_cost, opt.lower_bound - 1e-6);
  }
}

TEST(BellCanada, HighIntensityStressNoIspLoss) {
  // The Fig. 5 top end (4 pairs x 18 units = 90% of the narrowest cut):
  // the historical failure mode of naive split loops.
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const auto p = bell_instance(4, 18.0, seed);
    if (!p.feasible_when_fully_repaired()) continue;
    const auto isp = core::IspSolver(p).solve();
    EXPECT_NEAR(isp.satisfied_fraction, 1.0, 1e-6) << "seed " << seed;
    EXPECT_TRUE(core::validate_solution(p, isp).empty());
  }
}

TEST(BellCanada, GaussianDisasterRepairsScaleWithVariance) {
  // Fig. 6 shape: ALL (broken total) grows with variance; ISP stays below.
  util::Rng rng(99);
  double prev_broken = -1.0;
  for (double variance : {20.0, 80.0, 150.0}) {
    core::RecoveryProblem p;
    p.graph = topology::make_topology({topology::BellCanadaOptions{}});
    util::Rng demand_rng(variance * 7 + 1);
    p.demands = scenario::far_apart_demands(p.graph, 3, 10.0, demand_rng);
    disruption::GaussianDisasterOptions dopt;
    dopt.variance = variance;
    disruption::gaussian_disaster(p.graph, dopt, rng);
    const double broken = static_cast<double>(
        p.graph.num_broken_nodes() + p.graph.num_broken_edges());
    EXPECT_GT(broken, prev_broken);
    prev_broken = broken;

    const auto isp = core::IspSolver(p).solve();
    EXPECT_LE(isp.total_repairs(), static_cast<std::size_t>(broken));
    EXPECT_TRUE(core::validate_solution(p, isp).empty());
    if (p.feasible_when_fully_repaired()) {
      EXPECT_NEAR(isp.satisfied_fraction, 1.0, 1e-6);
    }
  }
}

TEST(ErdosRenyi, CliqueGivesTrivialSolutionForEveryAlgorithm) {
  // Fig. 7 anchor: at p=1 every algorithm repairs exactly 3 elements per
  // pair (the two endpoints plus the connecting edge).
  util::Rng rng(5);
  topology::ErdosRenyiOptions eopt;
  eopt.nodes = 30;
  eopt.edge_probability = 1.0;
  core::RecoveryProblem p;
  p.graph = topology::make_topology(eopt, rng);
  util::Rng demand_rng(6);
  p.demands = scenario::far_apart_demands(p.graph, 5, 1.0, demand_rng, 0.0);
  disruption::complete_destruction(p.graph);

  const auto isp = core::IspSolver(p).solve();
  EXPECT_EQ(isp.total_repairs(), 15u);
  heuristics::OptOptions oo;
  oo.time_limit_seconds = 0;
  const auto opt = heuristics::solve_opt(p, oo);
  EXPECT_EQ(opt.solution.total_repairs(), 15u);
  EXPECT_STREQ(opt.engine, "steiner");
  EXPECT_TRUE(opt.proven_optimal);
  const auto srt = heuristics::solve_srt(p);
  EXPECT_EQ(srt.total_repairs(), 15u);
}

TEST(ErdosRenyi, SteinerOptNeverAboveIsp) {
  for (double p_edge : {0.15, 0.4}) {
    util::Rng rng(static_cast<std::uint64_t>(p_edge * 100));
    topology::ErdosRenyiOptions eopt;
    eopt.nodes = 40;
    eopt.edge_probability = p_edge;
    core::RecoveryProblem problem;
    problem.graph = topology::make_topology(eopt, rng);
    if (graph::hop_diameter(graph::GraphView::build(problem.graph)) < 0) {
      continue;
    }
    util::Rng demand_rng(17);
    problem.demands =
        scenario::far_apart_demands(problem.graph, 4, 1.0, demand_rng);
    disruption::complete_destruction(problem.graph);

    const auto isp = core::IspSolver(problem).solve();
    heuristics::OptOptions oo;
    oo.time_limit_seconds = 0;
    oo.isp_restarts = 0;
    const auto opt = heuristics::solve_opt(problem, oo);
    ASSERT_TRUE(opt.proven_optimal);
    EXPECT_LE(opt.solution.total_repairs(), isp.total_repairs());
    EXPECT_NEAR(isp.satisfied_fraction, 1.0, 1e-6);
  }
}

TEST(CaidaLike, IspNoLossWhereSrtLoses) {
  // Fig. 9 shape at reduced scale for test speed: 300-node AS-like graph.
  util::Rng topo_rng(55);
  topology::CaidaLikeOptions copt;
  copt.nodes = 300;
  copt.edges = 370;
  copt.capacity = 30.0;
  core::RecoveryProblem p;
  p.graph = topology::make_topology(copt, topo_rng);
  util::Rng rng(66);
  std::size_t redraws = 0;
  do {
    p.demands = scenario::far_apart_demands(p.graph, 4, 22.0, rng);
  } while (!p.feasible_when_fully_repaired() && ++redraws < 40);
  if (!p.feasible_when_fully_repaired()) GTEST_SKIP();
  disruption::complete_destruction(p.graph);

  const auto isp = core::IspSolver(p).solve();
  EXPECT_NEAR(isp.satisfied_fraction, 1.0, 1e-6);
  EXPECT_TRUE(core::validate_solution(p, isp).empty());
  const auto srt = heuristics::solve_srt(p);
  EXPECT_TRUE(core::validate_solution(p, srt).empty());
  // SRT may or may not lose on this draw; its loss can never be negative.
  EXPECT_LE(srt.satisfied_fraction, 1.0 + 1e-9);
}

TEST(Multicommodity, BandWidensAgainstOptOnBellCanada) {
  const auto p = bell_instance(3, 10.0, 777);
  util::Rng rng(3);
  const auto band = mcf::explore_optimal_face(p.graph, p.demands, 6, rng);
  ASSERT_TRUE(band.feasible);
  heuristics::OptOptions oo;
  oo.time_limit_seconds = 5.0;
  const auto opt = heuristics::solve_opt(p, oo);
  // Fig. 3 shape: MCB within sight of OPT; MCW at or above MCB, below ALL.
  EXPECT_GE(band.worst_repairs, band.best_repairs);
  EXPECT_LE(band.worst_repairs,
            p.graph.num_broken_nodes() + p.graph.num_broken_edges());
  EXPECT_GE(static_cast<double>(band.worst_repairs),
            0.5 * static_cast<double>(opt.solution.total_repairs()));
}

}  // namespace
}  // namespace netrec
