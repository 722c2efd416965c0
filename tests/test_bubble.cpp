// ISP's bubble test (core/bubble.hpp, paper Definition 2) against a
// brute-force reference: a full BFS over working edges with residual, then
// the boundary scan over every node of the graph.  find_bubble stops at the
// first interior node next to a wall or an unrepaired broken node and scans
// only the bubble's members; neither shortcut may change a verdict or a
// member set.  Drained and broken edges are the trap: they are never
// traversed, yet their far ends still count in the boundary, and may join
// the bubble by another route.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bubble.hpp"
#include "golden.hpp"

namespace {

using namespace netrec;

using Pair = std::pair<graph::NodeId, graph::NodeId>;

std::size_t idx(graph::NodeId v) { return static_cast<std::size_t>(v); }

/// Brute-force Definition 2 with ISP's conventions: S grows from s over
/// working edges with residual above 1e-9, never entering another demand's
/// endpoint and never expanding t; then every full-graph edge at a member
/// other than s and t must stay inside S.  Returns S, or nothing.
std::optional<std::vector<char>> reference_bubble(
    const graph::Graph& g, const core::RepairState& state,
    const std::vector<double>& residual, const std::vector<char>& endpoint,
    graph::NodeId s, graph::NodeId t, bool check_boundary) {
  if (!state.node_ok(s) || !state.node_ok(t)) return std::nullopt;
  std::vector<char> in(g.num_nodes(), 0);
  std::vector<graph::NodeId> queue{s};
  in[idx(s)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::NodeId at = queue[head];
    if (at == t) continue;
    for (graph::EdgeId e : g.incident_edges(at)) {
      if (!state.edge_ok(e) || residual[static_cast<std::size_t>(e)] <= 1e-9) {
        continue;
      }
      const graph::NodeId to = g.other_endpoint(e, at);
      if (in[idx(to)] || (endpoint[idx(to)] && to != s && to != t)) continue;
      in[idx(to)] = 1;
      queue.push_back(to);
    }
  }
  if (!in[idx(t)]) return std::nullopt;
  if (check_boundary) {
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      const auto node = static_cast<graph::NodeId>(v);
      if (!in[v] || node == s || node == t) continue;
      for (graph::EdgeId e : g.incident_edges(node)) {
        if (!in[idx(g.other_endpoint(e, node))]) return std::nullopt;
      }
    }
  }
  return in;
}

graph::GraphView working_view(const graph::Graph& g,
                              const core::RepairState& state) {
  return graph::GraphView::build(
      g, {.edge_ok = [&](graph::EdgeId e) { return state.edge_ok(e); }});
}

std::vector<char> endpoints(const graph::Graph& g,
                            const std::vector<Pair>& demands) {
  std::vector<char> mark(g.num_nodes(), 0);
  for (const auto& [s, t] : demands) {
    mark[idx(s)] = 1;
    mark[idx(t)] = 1;
  }
  return mark;
}

/// What find_bubble said and the reference agreed with, summed over calls.
struct Tally {
  std::size_t calls = 0;
  std::size_t bounded_bubbles = 0;   ///< true verdicts with the boundary on
  std::size_t interior_bubbles = 0;  ///< ... of which with an interior node

  void add(const Tally& t) {
    calls += t.calls;
    bounded_bubbles += t.bounded_bubbles;
    interior_bubbles += t.interior_bubbles;
  }
};

/// Runs every demand through find_bubble on one shared workspace (so each
/// call also checks the previous call's reset) with ISP's boundary rule —
/// checked iff more than one demand remains — and with the opposite one,
/// and compares verdicts and member sets with the reference.
void expect_matches_reference(const graph::Graph& g,
                              const core::RepairState& state,
                              const std::vector<double>& residual,
                              const std::vector<Pair>& demands,
                              core::BubbleWorkspace& ws, Tally& tally) {
  const graph::GraphView view = working_view(g, state);
  const std::vector<char> endpoint = endpoints(g, demands);
  for (const auto& [s, t] : demands) {
    for (const bool check_boundary : {demands.size() > 1, demands.size() <= 1}) {
      const auto expected =
          reference_bubble(g, state, residual, endpoint, s, t, check_boundary);
      const bool found = core::find_bubble(view, state, residual, endpoint, s,
                                           t, check_boundary, ws);
      ++tally.calls;
      ASSERT_EQ(found, expected.has_value())
          << "demand " << s << " -> " << t << ", boundary " << check_boundary;
      if (!found) continue;
      if (check_boundary) {
        ++tally.bounded_bubbles;
        if (std::count(expected->begin(), expected->end(), 1) > 2) {
          ++tally.interior_bubbles;
        }
      }
      ASSERT_EQ(ws.in_bubble(), *expected)
          << "demand " << s << " -> " << t << ", boundary " << check_boundary;
    }
  }
}

/// Seeded repair state and residuals over a damaged graph: some broken
/// elements already on the repair list, and about a quarter of the edges
/// drained — half of those exactly at the 1e-9 threshold, which counts as
/// drained — next to usable residuals just above it.
std::vector<double> seeded_residual(const graph::Graph& g,
                                    core::RepairState& state, util::Rng& rng) {
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto node = static_cast<graph::NodeId>(n);
    if (g.node_broken(node) && rng.chance(0.3)) state.repair_node(node);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto edge = static_cast<graph::EdgeId>(e);
    if (g.edge_broken(edge) && rng.chance(0.3)) state.repair_edge(edge);
  }
  std::vector<double> residual(g.num_edges());
  for (double& r : residual) {
    const double u = rng.uniform(0.0, 1.0);
    r = u < 0.125 ? 0.0 : u < 0.25 ? 1e-9 : u < 0.3 ? 2e-9 : 1.0 + 8.0 * u;
  }
  return residual;
}

/// Demand sets of 1, 2, 3 and 8 pairs; the larger ones reuse endpoints so
/// that s or t is shared with another demand.
std::vector<std::vector<Pair>> seeded_demand_sets(const graph::Graph& g,
                                                  util::Rng& rng) {
  const auto node = [&] {
    return static_cast<graph::NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(g.num_nodes()) - 1));
  };
  std::vector<std::vector<Pair>> sets;
  for (const std::size_t k : {1, 2, 3, 8}) {
    std::vector<Pair> pairs;
    while (pairs.size() < k) {
      graph::NodeId s = node();
      if (!pairs.empty() && rng.chance(0.3)) s = pairs.back().first;
      const graph::NodeId t = node();
      if (s != t) pairs.emplace_back(s, t);
    }
    sets.push_back(std::move(pairs));
  }
  return sets;
}

/// Every demand set on every seeded state of `g`, then the endpoints of
/// every seventh edge as demands, two at a time: adjacent s and t often
/// close small bubbles.
Tally sweep(const graph::Graph& g, std::uint64_t seed, int states) {
  Tally tally;
  core::BubbleWorkspace ws(g.num_nodes());
  util::Rng rng(seed);
  for (int i = 0; i < states; ++i) {
    core::RepairState state(g);
    const std::vector<double> residual = seeded_residual(g, state, rng);
    for (const auto& demands : seeded_demand_sets(g, rng)) {
      expect_matches_reference(g, state, residual, demands, ws, tally);
    }
    std::vector<Pair> adjacent;
    for (std::size_t e = 0; e < g.num_edges(); e += 7) {
      adjacent.push_back(g.edge_endpoints(static_cast<graph::EdgeId>(e)));
    }
    for (std::size_t j = 0; j + 1 < adjacent.size(); j += 2) {
      expect_matches_reference(g, state, residual,
                               {adjacent[j], adjacent[j + 1]}, ws, tally);
    }
  }
  return tally;
}

TEST(BubbleDifferential, SeededBrokenEr) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    tally.add(sweep(test::broken_er(seed, 40, 0.12), seed, 8));
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    tally.add(sweep(test::er_scenario(seed).graph, seed, 8));
  }
  EXPECT_GT(tally.calls, 4000u);
  EXPECT_GT(tally.bounded_bubbles, 40u);
  EXPECT_GT(tally.interior_bubbles, 0u);
}

TEST(BubbleDifferential, SeededBarabasiAlbert) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    topology::BarabasiAlbertOptions ba;
    ba.nodes = 300;
    graph::Graph g = topology::make_topology({ba, seed});
    util::Rng damage(seed + 50);
    disruption::random_failures(g, 0.1, 0.1, damage);
    tally.add(sweep(g, seed, 3));
  }
  // The plan_scale preload with one of its damage states.
  tally.add(sweep(test::damaged(test::ba2000_problem(), 0.1, 1, 0).graph,
                  2000, 1));
  // Hubs make closed bubbles with an interior rare here; most tests leak.
  EXPECT_GT(tally.calls, 2000u);
  EXPECT_GT(tally.bounded_bubbles, 100u);
}

TEST(BubbleDifferential, SeededBrokenCaida) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    tally.add(sweep(test::caida_lazy_scenario(seed).graph, seed, 2));
  }
  EXPECT_GT(tally.calls, 1000u);
  EXPECT_GT(tally.bounded_bubbles, 100u);
  EXPECT_GT(tally.interior_bubbles, 10u);
}

// --- hand-built cases -------------------------------------------------------

/// Nodes 0..n-1 joined by unit-capacity edges, all working.
graph::Graph small_graph(std::size_t n, const std::vector<Pair>& edges) {
  graph::Builder builder;
  builder.add_nodes(n);
  for (const auto& [u, v] : edges) builder.add_edge(u, v, 1.0);
  return builder.finalize();
}

/// find_bubble's verdict for demand (s, t) among `demands`, after checking
/// it against the reference (boundary checked iff more than one demand).
bool bubble(const graph::Graph& g, const core::RepairState& state,
            const std::vector<double>& residual,
            const std::vector<Pair>& demands, graph::NodeId s,
            graph::NodeId t) {
  const std::vector<char> endpoint = endpoints(g, demands);
  const bool check_boundary = demands.size() > 1;
  core::BubbleWorkspace ws(g.num_nodes());
  const bool found = core::find_bubble(working_view(g, state), state, residual,
                                       endpoint, s, t, check_boundary, ws);
  const auto expected =
      reference_bubble(g, state, residual, endpoint, s, t, check_boundary);
  EXPECT_EQ(found, expected.has_value());
  if (found && expected) {
    EXPECT_EQ(ws.in_bubble(), *expected);
  }
  return found;
}

TEST(BubbleCases, SingleDemandSkipsTheBoundary) {
  // s=0 - 1 - t=2, interior node 1 next to broken node 3; node 4 is
  // isolated.  Node 1 leaks, but with one demand left there is no boundary
  // to check, so no early exit either.
  graph::Graph g = small_graph(5, {{0, 1}, {1, 2}, {1, 3}});
  g.set_node_broken(3, true);
  const core::RepairState state(g);
  const std::vector<double> residual(g.num_edges(), 1.0);
  EXPECT_TRUE(bubble(g, state, residual, {{0, 2}}, 0, 2));
  EXPECT_FALSE(bubble(g, state, residual, {{0, 2}, {0, 4}}, 0, 2));
}

TEST(BubbleCases, SharedEndpointsAreNotWalls) {
  // Demands 0->2, 0->3 and 4->2 share s and t; 3 hangs off s and 4 off t.
  const graph::Graph g = small_graph(5, {{0, 1}, {1, 2}, {0, 3}, {2, 4}});
  const core::RepairState state(g);
  const std::vector<double> residual(g.num_edges(), 1.0);
  const std::vector<Pair> demands{{0, 2}, {0, 3}, {4, 2}};
  EXPECT_TRUE(bubble(g, state, residual, demands, 0, 2));
  // For 0->3, interior node 1 touches the wall 2.
  EXPECT_FALSE(bubble(g, state, residual, demands, 0, 3));
  // For 4->2, t=2 is absorbed unexpanded: 1 and 0 are never reached.
  EXPECT_TRUE(bubble(g, state, residual, demands, 4, 2));
}

TEST(BubbleCases, TargetNextToAWallIsAnExit) {
  // 0 - 1 - t=2, and t next to 3, an endpoint of demand 3->4.
  const graph::Graph g = small_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const core::RepairState state(g);
  const std::vector<double> residual(g.num_edges(), 1.0);
  EXPECT_TRUE(bubble(g, state, residual, {{0, 2}, {3, 4}}, 0, 2));
  // Interior node 1 next to the same wall leaks.
  const graph::Graph h = small_graph(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  const core::RepairState h_state(h);
  EXPECT_FALSE(bubble(h, h_state, residual, {{0, 2}, {3, 4}}, 0, 2));
}

TEST(BubbleCases, BrokenNeighboursLeakUntilRepaired) {
  // 0 - 1 - 2, and interior node 1 next to broken node 3, which leads on
  // to 4.
  graph::Graph g = small_graph(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  g.set_node_broken(3, true);
  core::RepairState state(g);
  const std::vector<double> residual(g.num_edges(), 1.0);
  EXPECT_FALSE(bubble(g, state, residual, {{0, 2}, {0, 4}}, 0, 2));
  // Repaired, 3 joins the bubble, but its neighbour 4 is a wall.
  state.repair_node(3);
  EXPECT_FALSE(bubble(g, state, residual, {{0, 2}, {0, 4}}, 0, 2));
  // Without the wall, 3 and 4 both join and the bubble closes.
  EXPECT_TRUE(bubble(g, state, residual, {{0, 2}, {2, 0}}, 0, 2));
}

TEST(BubbleCases, DrainedAndBrokenEdgesCountInTheBoundary) {
  // s=0, t=3, interior 1 and 2 on two routes, node 4 an isolated wall:
  //   0 - 1 - 3,  0 - 2 - 3,  1 - 2
  // Edge 1-2 is not traversable, yet 2 joins S through 0, so the bubble
  // closes: its far end must not count as a leak.
  graph::Graph g = small_graph(5, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {1, 2}});
  const auto inner = static_cast<std::size_t>(g.find_edge(1, 2));
  const std::vector<Pair> demands{{0, 3}, {0, 4}};
  std::vector<double> residual(g.num_edges(), 1.0);
  {
    const core::RepairState state(g);
    residual[inner] = 0.0;
    EXPECT_TRUE(bubble(g, state, residual, demands, 0, 3));
    residual[inner] = 1e-9;  // at the threshold: drained
    EXPECT_TRUE(bubble(g, state, residual, demands, 0, 3));
  }
  residual.assign(g.num_edges(), 1.0);
  g.set_edge_broken(static_cast<graph::EdgeId>(inner), true);
  {
    const core::RepairState state(g);
    EXPECT_TRUE(bubble(g, state, residual, demands, 0, 3));
  }
  // The far end may also join after the near end is expanded: 1 - 4 is
  // drained and 4 is reached later, through 2.
  //   0 - 1 - 3,  0 - 2 - 4,  1 - 4
  const graph::Graph late = small_graph(5, {{0, 1}, {1, 3}, {0, 2}, {2, 4},
                                           {1, 4}});
  const core::RepairState late_state(late);
  std::vector<double> late_residual(late.num_edges(), 1.0);
  late_residual[static_cast<std::size_t>(late.find_edge(1, 4))] = 0.0;
  EXPECT_TRUE(bubble(late, late_state, late_residual, {{0, 3}, {3, 0}}, 0, 3));
  // A drained edge to a node nothing else reaches leaks: 0 - 1 - 3 with
  // 1 - 2 drained.
  const graph::Graph h = small_graph(5, {{0, 1}, {1, 3}, {1, 2}});
  const core::RepairState h_state(h);
  std::vector<double> h_residual(h.num_edges(), 1.0);
  h_residual[static_cast<std::size_t>(h.find_edge(1, 2))] = 0.0;
  EXPECT_FALSE(bubble(h, h_state, h_residual, demands, 0, 3));
}

}  // namespace
