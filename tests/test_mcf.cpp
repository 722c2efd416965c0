// Tests for the multi-commodity flow layer: routability (eq. 2), the split
// LP (Section IV-C) and the eq. (8) relaxation with its optimal face.
//
// Exactness cross-checks: on single-commodity instances the LP optimum must
// match Dinic max flow; on the classic 3-commodity triangle the LP must
// certify what the cut condition alone cannot.  LpGolden holds the one-shot
// LP consumers to tests/golden/lp_corpus.txt.
#include <gtest/gtest.h>

#include <cmath>

#include "golden.hpp"
#include "graph/builder.hpp"
#include "graph/maxflow.hpp"
#include "mcf/broken_usage.hpp"
#include "mcf/routing.hpp"
#include "mcf/split.hpp"
#include "mcf/types.hpp"
#include "util/rng.hpp"

namespace netrec::mcf {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Split LP on a fresh session over the static-capacity graph.
double splittable(const Graph& g, const std::vector<Demand>& demands,
                  int split_index, NodeId via) {
  PathLpSession session(g, PathLpMode::kMaxSplit);
  return max_splittable_amount(session, graph::GraphView::build(g),
                               indexed_specs(demands), split_index, via);
}

/// Static edge capacities, the capacity argument of routing_is_valid.
graph::EdgeWeight capacity_of(const Graph& g) {
  return [&g](EdgeId e) { return g.edge_capacity(e); };
}

Graph make_square_with_diagonal() {
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 0, 10.0);
  builder.add_edge(0, 2, 3.0);
  return builder.finalize();
}

TEST(Routing, SingleCommodityMatchesDinic) {
  Graph g = make_square_with_diagonal();
  const auto view = graph::GraphView::build(g);
  const auto dinic = graph::max_flow(view, 0, 2);
  const auto lp = max_routed_flow(view, {Demand{0, 2, 100.0}});
  EXPECT_NEAR(lp.total_routed, dinic.value, 1e-6);
  EXPECT_FALSE(lp.fully_routed);
  const auto exact = max_routed_flow(view, {Demand{0, 2, dinic.value}});
  EXPECT_TRUE(exact.fully_routed);
}

TEST(Routing, RandomSingleCommodityMatchesDinic) {
  util::Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 7;
    graph::Builder builder;
    for (int i = 0; i < n; ++i) builder.add_node();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.chance(0.45)) builder.add_edge(i, j, rng.uniform(1.0, 8.0));
      }
    }
    const Graph g = builder.finalize();
    const auto view = graph::GraphView::build(g);
    const double want = graph::max_flow(view, 0, n - 1).value;
    const auto lp = max_routed_flow(view, {Demand{0, n - 1, want + 50.0}});
    EXPECT_NEAR(lp.total_routed, want, 1e-5) << "trial " << trial;
  }
}

TEST(Routing, TwoCommoditiesShareCapacity) {
  // Path graph 0-1-2 with capacity 10; demands (0,2)=6 and (0,1)=6 cannot
  // both fit on edge 0-1; max routed = 10 in total... actually (0,2) uses
  // both edges: total on 0-1 is d1+d2 <= 10.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  Graph g = builder.finalize();
  const auto view = graph::GraphView::build(g);
  const std::vector<Demand> demands{Demand{0, 2, 6.0}, Demand{0, 1, 6.0}};
  const auto r = max_routed_flow(view, demands);
  EXPECT_FALSE(r.fully_routed);
  EXPECT_NEAR(r.total_routed, 10.0, 1e-6);

  const std::vector<Demand> fits{Demand{0, 2, 6.0}, Demand{0, 1, 4.0}};
  EXPECT_TRUE(is_routable(view, fits));
}

TEST(Routing, OkamuraSeymourStyleInstanceIsExact) {
  // K4 with unit capacities; three demands pairing opposite corners, each
  // of value 1: routable (multi-commodity), and saturates the graph tightly.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) builder.add_edge(i, j, 1.0);
  }
  Graph g = builder.finalize();
  const auto view = graph::GraphView::build(g);
  const std::vector<Demand> demands{Demand{0, 1, 1.0}, Demand{2, 3, 1.0},
                                    Demand{0, 3, 1.0}};
  EXPECT_TRUE(is_routable(view, demands));
  const std::vector<Demand> too_much{Demand{0, 1, 2.0}, Demand{2, 3, 2.0},
                                     Demand{0, 3, 2.0}};
  EXPECT_FALSE(is_routable(view, too_much));
}

TEST(Routing, GreedyRouteIsAValidWitness) {
  Graph g = make_square_with_diagonal();
  const auto view = graph::GraphView::build(g);
  const std::vector<Demand> demands{Demand{0, 2, 12.0}, Demand{1, 3, 5.0}};
  const auto r = greedy_route(view, demands);
  if (r.fully_routed) {
    EXPECT_TRUE(routing_is_valid(g, demands, r.flows, {}, capacity_of(g)));
  }
  // The exact referee must confirm routability regardless.
  EXPECT_TRUE(is_routable(view, demands));
}

TEST(Routing, RouteDemandsReturnsValidRouting) {
  Graph g = make_square_with_diagonal();
  const std::vector<Demand> demands{Demand{0, 2, 20.0}, Demand{1, 3, 3.0}};
  const auto r = route_demands(graph::GraphView::build(g), demands);
  ASSERT_TRUE(r.fully_routed);
  EXPECT_TRUE(routing_is_valid(g, demands, r.flows, {}, capacity_of(g)));
  EXPECT_NEAR(r.routed[0], 20.0, 1e-6);
  EXPECT_NEAR(r.routed[1], 3.0, 1e-6);
}

TEST(Routing, FiltersRestrictToWorkingSubgraph) {
  Graph g = make_square_with_diagonal();
  g.set_node_broken(1, true);
  g.set_edge_broken(g.find_edge(0, 2), true);
  // Only 0-3-2 left: capacity 10.
  const auto working =
      graph::GraphView::build(g, {.edge_ok = working_edge_filter(g)});
  EXPECT_TRUE(is_routable(working, {Demand{0, 2, 10.0}}));
  EXPECT_FALSE(is_routable(working, {Demand{0, 2, 10.5}}));
}

TEST(Routing, DisconnectedDemandFailsFast) {
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  Graph g = builder.finalize();
  EXPECT_FALSE(is_routable(graph::GraphView::build(g), {Demand{0, 1, 1.0}}));
}

TEST(Routing, ZeroAndSelfDemandsAreTriviallyRoutable) {
  Graph g = make_square_with_diagonal();
  EXPECT_TRUE(is_routable(graph::GraphView::build(g),
                          {Demand{0, 0, 5.0}, Demand{1, 2, 0.0}}));
}

// --- split LP -------------------------------------------------------------

TEST(Split, FullSplitWhenViaOnOnlyPath) {
  // 0-1-2 path; splitting (0,2) on node 1 must allow the full demand.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  Graph g = builder.finalize();
  const std::vector<Demand> demands{Demand{0, 2, 8.0}};
  EXPECT_NEAR(splittable(g, demands, 0, 1), 8.0, 1e-6);
}

TEST(Split, LimitedByViaCapacity) {
  // Two disjoint routes 0-1-3 (cap 4) and 0-2-3 (cap 10); demand (0,3)=12.
  // Splitting through node 1 can carry at most 4.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 4.0);
  builder.add_edge(1, 3, 4.0);
  builder.add_edge(0, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  Graph g = builder.finalize();
  const std::vector<Demand> demands{Demand{0, 3, 12.0}};
  EXPECT_NEAR(splittable(g, demands, 0, 1), 4.0, 1e-6);
}

TEST(Split, RespectsOtherDemandsRoutability) {
  // Square: forcing (0,2) through 1 consumes 0-1 and 1-2, which are also the
  // only edges for (0,1); dx must leave room for it.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  builder.add_edge(2, 3, 10.0);
  builder.add_edge(3, 0, 10.0);
  Graph g = builder.finalize();
  const std::vector<Demand> demands{Demand{0, 2, 14.0}, Demand{0, 1, 6.0}};
  // (0,2) can use 0-1-2 (10) and 0-3-2 (10).  Forcing dx through node 1
  // fights with (0,1)=6 on edge 0-1: dx <= 4 via 0-1 plus nothing else ...
  // the LP may route the (0,1) demand the long way (0-3-2-1), freeing 0-1.
  const double dx = splittable(g, demands, 0, 1);
  EXPECT_GE(dx, 4.0 - 1e-6);
  EXPECT_LE(dx, 10.0 + 1e-6);
  // Whatever dx was chosen, the split instance must remain routable.
  std::vector<Demand> split_instance{Demand{0, 2, 14.0 - dx},
                                     Demand{0, 1, 6.0}, Demand{0, 1, dx},
                                     Demand{1, 2, dx}};
  EXPECT_TRUE(is_routable(graph::GraphView::build(g), split_instance));
}

TEST(Split, ZeroWhenInstanceUnroutable) {
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  Graph g = builder.finalize();
  const std::vector<Demand> demands{Demand{0, 2, 5.0}};  // cap is only 1
  EXPECT_NEAR(splittable(g, demands, 0, 1), 0.0, 1e-6);
}

// --- eq. (8) relaxation ----------------------------------------------------

TEST(BrokenUsage, AvoidsBrokenDetourWhenFreePathExists) {
  // Working path 0-1-2 and broken shortcut 0-2: optimum routes around and
  // costs zero.
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 10.0);
  const EdgeId direct = builder.add_edge(0, 2, 10.0);
  Graph g = builder.finalize();
  g.set_edge_broken(direct, true);
  const auto r = min_broken_usage(g, {Demand{0, 2, 8.0}});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.cost, 0.0, 1e-6);
  EXPECT_TRUE(implied_repairs(g, r.routing.flows).edges.empty());
}

TEST(BrokenUsage, PaysForBrokenEdgeWhenForced) {
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 10.0);
  builder.add_edge(1, 2, 4.0);
  const EdgeId direct = builder.add_edge(0, 2, 10.0, 3.0);
  Graph g = builder.finalize();
  g.set_edge_broken(direct, true);
  // Demand 8 > working capacity 4: at least 4 units cross the broken edge,
  // each paying cost 3 -> objective 12.
  const auto r = min_broken_usage(g, {Demand{0, 2, 8.0}});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.cost, 12.0, 1e-6);
  const auto repairs = implied_repairs(g, r.routing.flows);
  ASSERT_EQ(repairs.edges.size(), 1u);
  EXPECT_EQ(repairs.edges[0], direct);
}

TEST(BrokenUsage, InfeasibleWhenDemandExceedsAllCapacity) {
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  builder.add_edge(0, 1, 2.0);
  Graph g = builder.finalize();
  const auto r = min_broken_usage(g, {Demand{0, 1, 5.0}});
  EXPECT_FALSE(r.feasible);
}

TEST(OptimalFace, BandBracketsRepairCounts) {
  // Two broken parallel routes between 0 and 3 with equal cost: the face
  // contains both a one-route solution and a spread solution.
  graph::Builder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  // route A: 0-1-3, route B: 0-2-3, both capacity 10, broken.
  // demand (0,3)=5 fits entirely on either.
  const EdgeId a1 = builder.add_edge(0, 1, 10.0);
  const EdgeId a2 = builder.add_edge(1, 3, 10.0);
  const EdgeId b1 = builder.add_edge(0, 2, 10.0);
  const EdgeId b2 = builder.add_edge(2, 3, 10.0);
  Graph g = builder.finalize();
  for (EdgeId e : {a1, a2, b1, b2}) g.set_edge_broken(e, true);
  // Broken-edge costs are zero-sum for the face: make them all equal so
  // every routing is optimal for eq. (8)... cost = 2 * flow either way.
  util::Rng rng(3);
  const auto band = explore_optimal_face(g, {Demand{0, 3, 5.0}}, 8, rng);
  ASSERT_TRUE(band.feasible);
  EXPECT_LE(band.best_repairs, 2u);
  EXPECT_GE(band.worst_repairs, band.best_repairs);
}

// The one-shot LP consumers must reproduce tests/golden/lp_corpus.txt:
// exactly on eager-row instances, vertex-independent fields on lazy ones.
void expect_lp_golden(const std::string& prefix) {
  for (const std::string& diff :
       test::golden_diffs(test::kLpCorpus, test::lp_cases(), prefix)) {
    ADD_FAILURE() << diff;
  }
}

TEST(LpGolden, EagerBellCanadaMatchesCorpus) {
  expect_lp_golden("eager bell-canada ");
}

TEST(LpGolden, EagerErMatchesCorpus) { expect_lp_golden("eager er "); }

TEST(LpGolden, LazyCaidaMatchesCorpus) { expect_lp_golden("lazy caida "); }

}  // namespace
}  // namespace netrec::mcf
