// GraphView kernel golden and contract tests.
//
// The CSR kernels must reproduce tests/golden/graph_kernels.txt bit for
// bit: Dijkstra trees, Brandes betweenness, Dinic max flows and successive
// shortest paths on seeded Erdős–Rényi draws and the Bell-Canada topology,
// always with a random subset of elements broken so the usability filters
// actually filter.  The corpus was recorded while
// these kernels and the std::function reference kernels they replaced
// agreed exactly, so the comparison still holds them to that reference.
// Its `topology` records likewise hold the generators and the GML loader
// to the graphs they built before they moved onto graph::Builder.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "golden.hpp"
#include "graph/builder.hpp"
#include "graph/dijkstra.hpp"
#include "graph/traversal.hpp"
#include "graph/view.hpp"

namespace {

using namespace netrec;

void expect_kernel_golden(const std::string& prefix) {
  for (const std::string& diff : test::golden_diffs(
           test::kGraphKernels, test::graph_kernel_cases(), prefix)) {
    ADD_FAILURE() << diff;
  }
}

TEST(GraphViewDijkstra, BitIdenticalToLegacyOnRandomEr) {
  expect_kernel_golden("dijkstra er ");
}

TEST(GraphViewDijkstra, BitIdenticalToLegacyOnBellCanada) {
  expect_kernel_golden("dijkstra bell-canada ");
}

TEST(GraphViewBetweenness, BitIdenticalToLegacyOnRandomEr) {
  expect_kernel_golden("betweenness er ");
}

TEST(GraphViewBetweenness, BitIdenticalToLegacyOnBellCanada) {
  expect_kernel_golden("betweenness bell-canada ");
}

TEST(GraphViewMaxflow, BitIdenticalToLegacy) {
  expect_kernel_golden("max-flow er ");
}

TEST(GraphViewMaxflow, ResidualCapacitiesMatchGolden) {
  expect_kernel_golden("max-flow residual er ");
}

TEST(GraphViewMaxflow, BubbleNodeFilterMatchesGolden) {
  expect_kernel_golden("max-flow bubble er ");
}

TEST(GraphViewMaxflow, CaidaDemandsMatchGolden) {
  expect_kernel_golden("max-flow caida ");
}

TEST(GraphViewDijkstra, ShortestPathMatchesGolden) {
  expect_kernel_golden("shortest-path er ");
}

TEST(GraphViewSuccessivePaths, BitIdenticalToLegacyComposition) {
  expect_kernel_golden("successive-paths er ");
}

TEST(DemandCentrality, CaidaSplitDemandsMatchGolden) {
  expect_kernel_golden("centrality caida split ");
}

TEST(ScenarioPlacement, FarApartDemandsMatchGolden) {
  expect_kernel_golden("placement ");
}

TEST(GraphTopology, GeneratorsAndGmlLoaderMatchGolden) {
  expect_kernel_golden("topology ");
}

TEST(GraphViewStructure, WorkingViewMatchesEdgeUsable) {
  const graph::Graph g = test::broken_er(11);
  const auto view = graph::GraphView::working(g);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<graph::EdgeId>(e);
    EXPECT_EQ(view.edge_in_view(id), g.edge_usable(id));
  }
  // Broken nodes stay in the working view, with no arcs.
  std::size_t broken_nodes = 0;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto u = static_cast<graph::NodeId>(n);
    if (!g.node_broken(u)) continue;
    ++broken_nodes;
    EXPECT_EQ(view.arcs_begin(u), view.arcs_end(u));
  }
  EXPECT_GT(broken_nodes, 0u);
  // Membership is decided by edges alone, for the working filter (which
  // folds in endpoint state) and for one that ignores element state: every
  // node is in the view, and each in-view edge has exactly two arcs, each
  // the other's twin.
  const auto every_third_out = graph::GraphView::build(
      g, {.edge_ok = [](graph::EdgeId e) { return e % 3 != 0; }});
  for (const graph::GraphView* v : {&view, &every_third_out}) {
    EXPECT_EQ(v->num_nodes(), g.num_nodes());
    EXPECT_EQ(v->num_edges(), g.num_edges());
    std::vector<int> arcs_of(g.num_edges(), 0);
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      const auto u = static_cast<graph::NodeId>(n);
      for (graph::ArcId a = v->arcs_begin(u); a < v->arcs_end(u); ++a) {
        const graph::ArcId twin = v->arc_twin(a);
        ASSERT_NE(twin, graph::kInvalidArc);
        EXPECT_NE(twin, a);
        EXPECT_EQ(v->arc_twin(twin), a);
        EXPECT_EQ(v->arc_edge(twin), v->arc_edge(a));
        EXPECT_EQ(v->arc_target(twin), u);
        ++arcs_of[static_cast<std::size_t>(v->arc_edge(a))];
      }
    }
    std::size_t in_view = 0;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const bool member = v->edge_in_view(static_cast<graph::EdgeId>(e));
      EXPECT_EQ(arcs_of[e], member ? 2 : 0) << "edge " << e;
      if (member) ++in_view;
    }
    EXPECT_EQ(v->num_arcs(), 2 * in_view);
    // Nodes the filter isolates still get a component of their own.
    for (const int label : graph::connected_components(*v)) {
      EXPECT_GE(label, 0);
    }
  }
}

TEST(GraphViewStructure, ArcOrderFollowsAdjacency) {
  const graph::Graph g = test::broken_er(12);
  const auto view = graph::GraphView::working(g);
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    const auto u = static_cast<graph::NodeId>(n);
    graph::ArcId a = view.arcs_begin(u);
    for (graph::EdgeId e : g.incident_edges(u)) {
      if (!g.edge_usable(e)) continue;
      ASSERT_LT(a, view.arcs_end(u));
      EXPECT_EQ(view.arc_edge(a), e);
      EXPECT_EQ(view.arc_target(a), g.other_endpoint(e, u));
      ++a;
    }
    EXPECT_EQ(a, view.arcs_end(u));
  }
}

TEST(GraphValidation, RejectsNaNAndNegativeInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  EXPECT_THROW(builder.add_node("x", 0, 0, nan), std::invalid_argument);
  EXPECT_THROW(builder.add_node("x", 0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, -2.0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_EQ(builder.add_edge(0, 1, 1.0), 0);
  const graph::Graph g = builder.finalize();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphValidation, DijkstraRejectsNaNLength) {
  graph::Builder builder;
  builder.add_node();
  builder.add_node();
  builder.add_edge(0, 1, 1.0);
  const graph::Graph g = builder.finalize();
  const auto tree_under = [&g](graph::EdgeWeight length) {
    graph::ViewConfig config;
    config.length = std::move(length);
    return graph::dijkstra(graph::GraphView::build(g, config), 0);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(tree_under([nan](graph::EdgeId) { return nan; }),
               std::invalid_argument);
  EXPECT_THROW(tree_under([](graph::EdgeId) { return -0.5; }),
               std::invalid_argument);
}

}  // namespace
