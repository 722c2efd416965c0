// Topology generators, disruption models and scenario scaffolding.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "disruption/disruption.hpp"
#include "graph/builder.hpp"
#include "graph/traversal.hpp"
#include "referees.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace netrec {
namespace {

TEST(BellCanada, HasPaperDimensionsAndCapacities) {
  const graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  EXPECT_EQ(g.num_nodes(), 48u);
  EXPECT_EQ(g.num_edges(), 64u);
  std::set<double> capacities;
  for (double cap : g.edge_capacities()) capacities.insert(cap);
  EXPECT_EQ(capacities, (std::set<double>{20.0, 30.0, 50.0}));
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    EXPECT_DOUBLE_EQ(g.node_repair_cost(id), 1.0);
    EXPECT_FALSE(g.node_name(id).empty());
    EXPECT_NE(g.node_x(id), 0.0);  // has coordinates
  }
  // Single component.
  EXPECT_EQ(graph::connected_components(graph::GraphView::build(g)).back(), 0);
}

TEST(BellCanada, DiameterSupportsFarApartDemands) {
  const graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  const int diameter = graph::hop_diameter(graph::GraphView::build(g));
  EXPECT_GE(diameter, 8);   // far-apart pairs need room
  EXPECT_LE(diameter, 20);  // ...but stay a realistic ISP backbone
}

TEST(ErdosRenyi, EdgeCountMatchesProbability) {
  util::Rng rng(11);
  topology::ErdosRenyiOptions opts;
  opts.nodes = 100;
  opts.edge_probability = 0.3;
  const graph::Graph g = topology::make_topology(opts, rng);
  const double expected = 0.3 * (100.0 * 99.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.15);
  for (double cap : g.edge_capacities()) EXPECT_DOUBLE_EQ(cap, 1000.0);
}

TEST(ErdosRenyi, FullProbabilityIsClique) {
  util::Rng rng(3);
  topology::ErdosRenyiOptions opts;
  opts.nodes = 12;
  opts.edge_probability = 1.0;
  const graph::Graph g = topology::make_topology(opts, rng);
  EXPECT_EQ(g.num_edges(), 12u * 11u / 2u);
}

TEST(CaidaLike, ExactSizeConnectedHeavyTail) {
  util::Rng rng(7);
  topology::CaidaLikeOptions opts;  // defaults: 825 / 1018
  const graph::Graph g = topology::make_topology(opts, rng);
  EXPECT_EQ(g.num_nodes(), 825u);
  EXPECT_EQ(g.num_edges(), 1018u);
  // Connected (growth model guarantees it).
  int max_label = 0;
  for (int l : graph::connected_components(graph::GraphView::build(g))) {
    max_label = std::max(max_label, l);
  }
  EXPECT_EQ(max_label, 0);
  // Heavy tail: a hub much larger than the median degree.
  std::size_t max_degree = 0;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    max_degree = std::max(max_degree, g.degree(static_cast<graph::NodeId>(n)));
  }
  EXPECT_GE(max_degree, 20u);
}

TEST(Disruption, CompleteDestructionBreaksAll) {
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  disruption::complete_destruction(g);
  EXPECT_EQ(g.num_broken_nodes(), g.num_nodes());
  EXPECT_EQ(g.num_broken_edges(), g.num_edges());
}

TEST(Disruption, GaussianGrowsWithVariance) {
  util::Rng rng(19);
  double previous = -1.0;
  for (double variance : {10.0, 50.0, 150.0}) {
    util::RunningStats broken;
    for (int trial = 0; trial < 10; ++trial) {
      graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
      disruption::GaussianDisasterOptions opts;
      opts.variance = variance;
      const auto report = disruption::gaussian_disaster(g, opts, rng);
      broken.add(static_cast<double>(report.total()));
    }
    EXPECT_GT(broken.mean(), previous)
        << "variance " << variance << " did not grow the disaster";
    previous = broken.mean();
  }
  // Top of the sweep: near-complete destruction (paper Sec. VII-A3).
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  disruption::GaussianDisasterOptions opts;
  opts.variance = 150.0;
  disruption::gaussian_disaster(g, opts, rng);
  EXPECT_GE(g.num_broken_nodes() + g.num_broken_edges(), 90u);
}

TEST(Disruption, RandomFailuresRespectProbabilityExtremes) {
  util::Rng rng(5);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  disruption::random_failures(g, 0.0, 0.0, rng);
  EXPECT_EQ(g.num_broken_nodes(), 0u);
  disruption::random_failures(g, 1.0, 1.0, rng);
  EXPECT_EQ(g.num_broken_nodes(), g.num_nodes());
}

TEST(Aftershock, FiresExactlyMaxShocksThenExhausts) {
  util::Rng rng(41);
  disruption::AftershockOptions opts;
  opts.first.variance = 60.0;
  opts.decay = 0.5;
  opts.max_shocks = 3;
  disruption::AftershockProcess process(opts);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  std::size_t fired = 0;
  while (!process.exhausted()) {
    process.next(g, rng);
    ++fired;
    ASSERT_LE(fired, 10u) << "process never exhausted";
  }
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(process.shocks_fired(), 3u);
  // Exhausted: further shocks are no-ops.
  const std::size_t broken_before = g.num_broken_nodes() + g.num_broken_edges();
  const auto report = process.next(g, rng);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(g.num_broken_nodes() + g.num_broken_edges(), broken_before);
}

TEST(Aftershock, MagnitudeDecaysAndFloorsOut) {
  disruption::AftershockOptions opts;
  opts.first.variance = 40.0;
  opts.decay = 0.25;
  opts.max_shocks = 100;
  opts.min_variance = 1.0;
  disruption::AftershockProcess process(opts);
  util::Rng rng(7);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  double previous = 1e18;
  while (!process.exhausted()) {
    const double variance = process.current_variance();
    EXPECT_LT(variance, previous);
    previous = variance;
    process.next(g, rng);
  }
  // 40 -> 10 -> 2.5 -> 0.625 (< floor): exactly three shocks fired.
  EXPECT_EQ(process.shocks_fired(), 3u);
}

TEST(Aftershock, OnlyBreaksNeverRepairs) {
  util::Rng rng(13);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  // Pre-break a marked subset; aftershocks must never clear those flags.
  g.set_node_broken(0, true);
  g.set_edge_broken(0, true);
  disruption::AftershockOptions opts;
  opts.first.variance = 80.0;
  opts.max_shocks = 4;
  disruption::AftershockProcess process(opts);
  std::size_t previous = g.num_broken_nodes() + g.num_broken_edges();
  while (!process.exhausted()) {
    process.next(g, rng);
    const std::size_t now = g.num_broken_nodes() + g.num_broken_edges();
    EXPECT_GE(now, previous);
    previous = now;
  }
  EXPECT_TRUE(g.node_broken(0));
  EXPECT_TRUE(g.edge_broken(0));
}

TEST(Cascade, ReRoutedOverloadBreaksTheDetour) {
  // Square s - a - t (top, high capacity) and s - b - t (bottom, thin).
  // Breaking the top path forces the demand onto the thin detour, whose
  // capacity it exceeds: the cascade must break the detour edges.
  graph::Builder builder;
  const auto s = builder.add_node("s");
  const auto a = builder.add_node("a");
  const auto t = builder.add_node("t");
  const auto b = builder.add_node("b");
  const auto sa = builder.add_edge(s, a, 10.0);
  const auto at = builder.add_edge(a, t, 10.0);
  const auto sb = builder.add_edge(s, b, 2.0);
  const auto bt = builder.add_edge(b, t, 2.0);
  graph::Graph g = builder.finalize();
  const std::vector<mcf::Demand> demands{{s, t, 5.0}};

  disruption::CascadeModel model;
  // Intact graph: shortest path is the 2-hop top route with headroom — no
  // overload, nothing breaks.
  EXPECT_EQ(model.advance(g, demands).total(), 0u);

  g.set_edge_broken(sa, true);
  const auto report = model.advance(g, demands);
  EXPECT_EQ(report.broken_edges, 2u);
  EXPECT_TRUE(g.edge_broken(sb));
  EXPECT_TRUE(g.edge_broken(bt));
  EXPECT_FALSE(g.edge_broken(at));  // unreachable now, but not overloaded
}

TEST(Cascade, DisconnectedDemandContributesNoLoad) {
  graph::Builder builder;
  const auto s = builder.add_node("s");
  const auto t = builder.add_node("t");
  const auto u = builder.add_node("u");
  const auto v = builder.add_node("v");
  builder.add_edge(s, t, 1.0);
  const auto uv = builder.add_edge(u, v, 0.5);
  graph::Graph g = builder.finalize();
  g.set_edge_broken(0, true);  // s-t cut off entirely
  disruption::CascadeModel model;
  const std::vector<mcf::Demand> demands{{s, t, 10.0}};
  EXPECT_EQ(model.advance(g, demands).total(), 0u);
  EXPECT_FALSE(g.edge_broken(uv));
}

TEST(Cascade, OverloadFactorGatesTheBreak) {
  graph::Builder builder;
  const auto s = builder.add_node("s");
  const auto t = builder.add_node("t");
  const auto e = builder.add_edge(s, t, 4.0);
  graph::Graph g = builder.finalize();
  const std::vector<mcf::Demand> demands{{s, t, 5.0}};
  {
    // Factor 1.5: 5 units over capacity 4 stays under 6 — holds.
    disruption::CascadeOptions opts;
    opts.overload_factor = 1.5;
    disruption::CascadeModel model(opts);
    EXPECT_EQ(model.advance(g, demands).total(), 0u);
    EXPECT_FALSE(g.edge_broken(e));
  }
  {
    // Factor 1.0: 5 > 4 — breaks.
    disruption::CascadeModel model;
    EXPECT_EQ(model.advance(g, demands).broken_edges, 1u);
    EXPECT_TRUE(g.edge_broken(e));
  }
}

TEST(Scenario, FarApartDemandsRespectDistance) {
  topology::BarabasiAlbertOptions ba;
  ba.nodes = 2000;
  for (const graph::Graph& g :
       {topology::make_topology({topology::BellCanadaOptions{}}),
        topology::make_topology({ba, 1})}) {
    util::Rng rng(23);
    const auto demands = scenario::far_apart_demands(g, 4, 10.0, rng);
    ASSERT_EQ(demands.size(), 4u);
    const graph::GraphView view = graph::GraphView::build(g);
    const int diameter = graph::hop_diameter(view);
    ASSERT_GT(diameter, 0);
    const int min_hops = static_cast<int>(std::ceil(diameter * 0.5));
    for (const auto& d : demands) {
      EXPECT_GE(graph::bfs_hops(view, d.source)[static_cast<std::size_t>(
                    d.target)],
                min_hops);
      EXPECT_DOUBLE_EQ(d.amount, 10.0);
    }
    // Endpoints all distinct (enough far-apart pairs exist on both).
    std::set<graph::NodeId> endpoints;
    for (const auto& d : demands) {
      endpoints.insert(d.source);
      endpoints.insert(d.target);
    }
    EXPECT_EQ(endpoints.size(), 8u);
  }
}

TEST(Scenario, DemandsAreDeterministicPerSeed) {
  const graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng a(99);
  util::Rng b(99);
  const auto da = scenario::far_apart_demands(g, 3, 5.0, a);
  const auto db = scenario::far_apart_demands(g, 3, 5.0, b);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].source, db[i].source);
    EXPECT_EQ(da[i].target, db[i].target);
  }
}

TEST(Scenario, RunnerAggregatesAcrossRuns) {
  scenario::RunnerOptions opts;
  opts.runs = 3;
  const auto result = scenario::run_experiment(
      [](util::Rng& rng) {
        core::RecoveryProblem p;
        p.graph = topology::make_topology({topology::BellCanadaOptions{}});
        util::Rng local = rng.fork();
        p.demands = scenario::far_apart_demands(p.graph, 2, 10.0, local);
        disruption::complete_destruction(p.graph);
        return p;
      },
      {{"noop",
        [](const core::RecoveryProblem& problem, scenario::RunContext&) {
          core::RecoverySolution s;
          s.algorithm = "noop";
          core::score_solution(problem, s);
          return s;
        }}},
      opts);
  EXPECT_EQ(result.completed_runs, 3u);
  const auto& metrics = result.per_cell.at("noop");
  EXPECT_EQ(metrics.get("total_repairs").count(), 3u);
  EXPECT_DOUBLE_EQ(metrics.get("satisfied_pct").mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.instance.get("broken_total").mean(), 48.0 + 64.0);
}

}  // namespace
}  // namespace netrec
