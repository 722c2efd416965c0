// Direct tests of the column-generation master, PathLpSession: mode
// semantics, lazy capacity-row activation, cost-bound rows and convergence
// reporting on one-use sessions (the shape of every one-shot solve), then
// the persistent (column-pool + warm-basis) use, pinned against a fresh
// session on the same view across mutations.
#include <algorithm>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/view_cache.hpp"
#include "mcf/path_lp.hpp"
#include "mcf/path_lp_session.hpp"
#include "mcf/routing.hpp"
#include "util/rng.hpp"

namespace netrec::mcf {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Ladder graph: two s-t routes of given capacities plus rungs.
Graph two_route_graph(double cap_a, double cap_b) {
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, cap_a);
  builder.add_edge(1, 3, cap_a);
  builder.add_edge(0, 2, cap_b);
  builder.add_edge(2, 3, cap_b);
  return builder.finalize();
}

/// kMaxRouted on a fresh session over the static-capacity graph.
PathLpResult max_routed_once(const Graph& g,
                             const std::vector<Demand>& demands) {
  PathLpSession lp(g, PathLpMode::kMaxRouted);
  return lp.solve(graph::GraphView::build(g), indexed_specs(demands));
}

/// kMinCost on a fresh session over the static-capacity graph.
PathLpResult min_cost_once(const Graph& g, const std::vector<Demand>& demands,
                           graph::EdgeWeight cost) {
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective(std::move(cost));
  return lp.solve(graph::GraphView::build(g), indexed_specs(demands));
}

TEST(PathLp, MaxRoutedConvergesToExactOptimum) {
  Graph g = two_route_graph(7.0, 5.0);
  const auto r = max_routed_once(g, {Demand{0, 3, 100.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  EXPECT_FALSE(r.routing.fully_routed);
}

TEST(PathLp, ModeMustBeConfigured) {
  // kMinCost without an objective throws.
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMinCost);
  EXPECT_THROW(lp.solve(graph::GraphView::build(g),
                        indexed_specs({Demand{0, 3, 1.0}})),
               std::logic_error);
}

TEST(PathLp, MinCostPrefersCheapEdges) {
  Graph g = two_route_graph(10.0, 10.0);
  // Route A (via node 1) costs 5 per edge; route B free.
  auto cost = [&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 5.0 : 0.0;
  };
  const auto r = min_cost_once(g, {Demand{0, 3, 8.0}}, cost);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.routing.fully_routed);
  EXPECT_NEAR(r.objective, 0.0, 1e-6);  // everything on route B
}

TEST(PathLp, MinCostPaysWhenForcedAcrossBothRoutes) {
  Graph g = two_route_graph(10.0, 4.0);
  auto cost = [&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 1.0 : 0.0;
  };
  // Demand 10 > free route capacity 4: six units must take the 2-cost route.
  const auto r = min_cost_once(g, {Demand{0, 3, 10.0}}, cost);
  EXPECT_TRUE(r.routing.fully_routed);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);  // 6 units x cost 2
}

TEST(PathLp, MinCostReportsShortfallWhenInfeasible) {
  Graph g = two_route_graph(2.0, 1.0);
  const auto r =
      min_cost_once(g, {Demand{0, 3, 10.0}}, [](EdgeId) { return 0.0; });
  EXPECT_FALSE(r.routing.fully_routed);
  ASSERT_EQ(r.shortfall.size(), 1u);
  EXPECT_NEAR(r.shortfall[0], 7.0, 1e-6);  // 10 wanted, 3 routable
}

TEST(PathLp, MaxSplitHonoursDxCap) {
  Graph g = two_route_graph(6.0, 9.0);
  PathLpSession lp(g, PathLpMode::kMaxSplit);
  const auto r = lp.solve_split(graph::GraphView::build(g),
                                indexed_specs({Demand{0, 3, 4.0}}), 0, 1);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);  // dx capped by the demand itself
}

TEST(PathLp, SplitIndexValidation) {
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMaxSplit);
  EXPECT_THROW(lp.solve_split(graph::GraphView::build(g),
                              indexed_specs({Demand{0, 3, 1.0}}), 5, 1),
               std::invalid_argument);
}

TEST(PathLp, CostBoundRequiresMinCostMode) {
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMaxRouted);
  EXPECT_THROW(
      lp.add_cost_bound(PathCostBound{[](EdgeId) { return 1.0; }, 5.0}),
      std::logic_error);
}

TEST(PathLp, CostBoundAfterFirstSolveThrows) {
  Graph g = two_route_graph(1.0, 1.0);
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([](EdgeId) { return 1.0; });
  lp.solve(graph::GraphView::build(g), indexed_specs({Demand{0, 3, 1.0}}));
  EXPECT_THROW(
      lp.add_cost_bound(PathCostBound{[](EdgeId) { return 1.0; }, 5.0}),
      std::logic_error);
}

TEST(PathLp, CostBoundPinsTheOptimalFace) {
  Graph g = two_route_graph(10.0, 10.0);
  auto route_a_cost = [&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 1 || ev == 1) ? 1.0 : 0.0;
  };
  // Secondary objective prefers route A, but the bound row pins route-A
  // usage to zero cost, forcing the flow onto route B.
  PathLpSession lp(g, PathLpMode::kMinCost);
  lp.set_min_cost_objective([&g](EdgeId e) {
    const auto [eu, ev] = g.edge_endpoints(e);
    return (eu == 2 || ev == 2) ? 1.0 : 0.0;  // dislikes route B
  });
  lp.add_cost_bound(PathCostBound{route_a_cost, 0.0});
  const auto r =
      lp.solve(graph::GraphView::build(g), indexed_specs({Demand{0, 3, 5.0}}));
  EXPECT_TRUE(r.routing.fully_routed);
  for (const auto& flow : r.routing.flows) {
    if (flow.amount <= 1e-7) continue;
    for (NodeId n : flow.path.nodes(g)) EXPECT_NE(n, 1);
  }
}

TEST(PathLp, LazyCapacityRowsActivateOnLargeGraphs) {
  // A long chain (199 edges, above the 160-edge eager threshold) with one
  // tight middle edge.
  const int n = 200;
  graph::Builder builder;
  for (int i = 0; i < n; ++i) builder.add_node();
  for (int i = 0; i + 1 < n; ++i) {
    builder.add_edge(i, i + 1, i == n / 2 ? 3.0 : 100.0);
  }
  const Graph g = builder.finalize();
  const auto r = max_routed_once(g, {Demand{0, n - 1, 10.0}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);  // the tight edge binds
}

TEST(PathLp, ParallelDemandsShareFairlyAtOptimum) {
  // Total capacity 12; three demands of 6 each -> max routed is 12, however
  // distributed.  The optimum must not exceed capacity nor demand.
  Graph g = two_route_graph(6.0, 6.0);
  std::vector<Demand> demands{Demand{0, 3, 6.0}, Demand{0, 3, 6.0},
                              Demand{0, 3, 6.0}};
  const auto r = max_routed_once(g, demands);
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
  for (std::size_t h = 0; h < demands.size(); ++h) {
    EXPECT_LE(r.routing.routed[h], 6.0 + 1e-6);
  }
}

TEST(PathLp, RandomInstancesNeverExceedCapacities) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 10;
    graph::Builder builder;
    for (int i = 0; i < n; ++i) builder.add_node();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (rng.chance(0.4)) builder.add_edge(i, j, rng.uniform(1.0, 6.0));
      }
    }
    const Graph g = builder.finalize();
    std::vector<Demand> demands;
    for (int k = 0; k < 3; ++k) {
      const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (s != t) demands.push_back(Demand{s, t, rng.uniform(1.0, 5.0)});
    }
    if (demands.empty()) continue;
    const auto r = max_routed_once(g, demands);
    EXPECT_TRUE(routing_is_valid(
        g, demands, r.routing.flows, {},
        [&g](EdgeId e) { return g.edge_capacity(e); }))
        << "trial " << trial;
  }
}

// --- PathLpSession: persistent column pool + warm basis ---------------------

/// ViewCache-backed fixture over a mutable residual array, mirroring how
/// ISP drives a session: capacities read live state, mutations are
/// published through the cache and fan out to the registered session.
struct SessionFixture {
  Graph g;
  std::vector<double> residual;
  graph::ViewCache cache;
  graph::ViewCache::SlotId slot;

  explicit SessionFixture(Graph graph)
      : g(std::move(graph)), residual(g.num_edges()), cache(g) {
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      residual[e] = g.edge_capacity(static_cast<EdgeId>(e));
    }
    graph::ViewConfig config;
    config.capacity = [this](EdgeId e) {
      return residual[static_cast<std::size_t>(e)];
    };
    slot = cache.add_config(std::move(config));
  }

  const graph::GraphView& view() { return cache.view(slot); }

  void consume(EdgeId e, double amount) {
    residual[static_cast<std::size_t>(e)] =
        std::max(0.0, residual[static_cast<std::size_t>(e)] - amount);
    cache.invalidate_edge(e);
  }
};

TEST(PathLpSession, WarmMatchesFreshSessionAcrossResidualMutations) {
  SessionFixture fx(two_route_graph(7.0, 5.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 100.0}}};

  // Three rounds, draining route A between rounds; the warm session must
  // track a fresh session on the identical view exactly.
  for (int round = 0; round < 3; ++round) {
    const auto s = session.solve(fx.view(), specs);
    PathLpSession fresh(fx.g, PathLpMode::kMaxRouted);
    const auto reference = fresh.solve(fx.view(), specs);
    EXPECT_EQ(s.objective, reference.objective) << "round " << round;
    EXPECT_EQ(s.routing.fully_routed, reference.routing.fully_routed);
    EXPECT_TRUE(s.converged);
    fx.consume(0, 3.0);  // drain edge (0,1) step by step
    fx.consume(1, 3.0);
  }
  // After two drains route A is dry: only route B's 5.0 remains.
  const auto final_result = session.solve(fx.view(), specs);
  EXPECT_NEAR(final_result.objective, 5.0, 1e-6);
}

TEST(PathLpSession, DemandUidsBindRowsAcrossCalls) {
  SessionFixture fx(two_route_graph(6.0, 6.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);

  // uid 7 present, then shrunk, then gone; uid 9 appears mid-session.
  auto solve = [&](std::vector<PathLpSession::DemandSpec> specs) {
    return session.solve(fx.view(), specs);
  };
  EXPECT_NEAR(solve({{7, Demand{0, 3, 4.0}}}).objective, 4.0, 1e-6);
  EXPECT_NEAR(
      solve({{7, Demand{0, 3, 2.0}}, {9, Demand{1, 2, 1.0}}}).objective, 3.0,
      1e-6);
  EXPECT_NEAR(solve({{9, Demand{1, 2, 1.0}}}).objective, 1.0, 1e-6);
}

TEST(PathLpSession, WarmSplitProbesMatchFreshSession) {
  // Diamond 0-{1,2}-3 plus a tail so splitting through node 1 is bounded.
  graph::Builder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1, 3.0);
  builder.add_edge(1, 3, 2.0);
  builder.add_edge(0, 2, 4.0);
  builder.add_edge(2, 3, 4.0);
  Graph g = builder.finalize();
  SessionFixture fx(std::move(g));
  PathLpSession session(fx.g, PathLpMode::kMaxSplit);
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 5.0}}};

  for (const NodeId via : {NodeId{1}, NodeId{2}, NodeId{1}}) {
    const auto s = session.solve_split(fx.view(), specs, 0, via);
    PathLpSession fresh(fx.g, PathLpMode::kMaxSplit);
    const auto reference = fresh.solve_split(fx.view(), specs, 0, via);
    EXPECT_EQ(s.objective, reference.objective) << "via " << via;
    EXPECT_EQ(s.routing.fully_routed, reference.routing.fully_routed);
  }
}

TEST(PathLpSession, MinCostRepricesAfterInvalidation) {
  SessionFixture fx(two_route_graph(10.0, 10.0));
  // Mutable per-edge cost, read live by the session's objective callback.
  std::vector<double> cost(fx.g.num_edges(), 0.0);
  cost[0] = cost[1] = 5.0;  // route A expensive at first
  PathLpSession session(fx.g, PathLpMode::kMinCost);
  session.set_min_cost_objective(
      [&cost](EdgeId e) { return cost[static_cast<std::size_t>(e)]; });
  fx.cache.add_listener(&session);

  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 8.0}}};
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 0.0, 1e-6);

  // Flip the price onto route B and publish the change; the surviving
  // columns must be re-priced, which moves the whole optimal routing onto
  // route A (a stale pool would keep riding route B and still *report* a
  // zero model objective, so assert on the witness flows, not the value).
  cost[0] = cost[1] = 0.0;
  cost[2] = cost[3] = 5.0;
  fx.cache.invalidate_edge(0);
  fx.cache.invalidate_edge(1);
  fx.cache.invalidate_edge(2);
  fx.cache.invalidate_edge(3);
  const auto repriced = session.solve(fx.view(), specs);
  EXPECT_NEAR(repriced.objective, 0.0, 1e-6);
  double on_route_a = 0.0;
  for (const PathFlow& flow : repriced.routing.flows) {
    for (EdgeId e : flow.path.edges) {
      if (e == 0) on_route_a += flow.amount;
    }
  }
  EXPECT_NEAR(on_route_a, 8.0, 1e-6);
}

TEST(PathLpSession, EpochBumpResetsAllState) {
  SessionFixture fx(two_route_graph(7.0, 5.0));
  PathLpSession session(fx.g, PathLpMode::kMaxRouted);
  fx.cache.add_listener(&session);
  const std::vector<PathLpSession::DemandSpec> specs = {
      {0, Demand{0, 3, 100.0}}};
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 12.0, 1e-6);
  fx.cache.bump_epoch();
  EXPECT_EQ(session.stats().resets, 1u);
  EXPECT_NEAR(session.solve(fx.view(), specs).objective, 12.0, 1e-6);
}

}  // namespace
}  // namespace netrec::mcf
