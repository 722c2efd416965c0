// Builder finalize invariants (including its failure contract), NTB binary
// and edge-list round trips (in memory and through files) and rejection of
// corrupt images, the O(log d) find_edge index, and the unified generator
// API.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/edgelist.hpp"
#include "graph/gml.hpp"
#include "graph/graph.hpp"
#include "graph/ntb.hpp"
#include "topology/generator.hpp"
#include "topology/topologies.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace netrec {
namespace {

// --- Builder invariants ----------------------------------------------------

TEST(Builder, DuplicateEdgeNamedAtFinalize) {
  graph::Builder b;
  b.add_nodes(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(1, 0, 1.0);  // same undirected pair, reversed
  try {
    b.finalize();
    FAIL() << "duplicate edge not detected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
  }
  // The rejected batch is discarded: the Builder starts over empty.
  EXPECT_EQ(b.num_nodes(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
}

TEST(Builder, SelfLoopThrowsAtAddEdge) {
  graph::Builder b;
  b.add_nodes(2);
  EXPECT_THROW(b.add_edge(1, 1, 1.0), std::invalid_argument);
}

TEST(Builder, EndpointOutOfRangeThrows) {
  graph::Builder b;
  b.add_nodes(2);
  EXPECT_THROW(b.add_edge(0, 2, 1.0), std::invalid_argument);
}

TEST(Builder, BadMetricsThrow) {
  graph::Builder b;
  b.add_nodes(2);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, 1.0, -2.0), std::invalid_argument);
  EXPECT_THROW(b.add_node("x", 0, 0, -1.0), std::invalid_argument);
}

TEST(Builder, IdOverflowGuard) {
  // Both branches of the 2^31 ceiling, neither of which may allocate:
  // a single oversized batch, and a batch that overflows the running count.
  graph::Builder b;
  EXPECT_THROW(b.add_nodes(graph::kMaxGraphElements + 1), std::length_error);
  b.add_nodes(8);
  EXPECT_THROW(b.add_nodes(graph::kMaxGraphElements - 4), std::length_error);
}

TEST(Builder, FinalizeLeavesBuilderEmpty) {
  graph::Builder b;
  b.add_nodes(2);
  b.add_edge(0, 1, 3.0);
  graph::Graph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(b.num_nodes(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
}

TEST(Builder, DegreeOrderRelabelsByDegree) {
  // 0 is isolated, 3 is the hub: after relabeling the hub must be node 0
  // and edge ids must keep insertion order.  Each node's x coordinate is
  // its id before relabeling.
  graph::Builder b(graph::Builder::Options{.degree_order = true});
  for (int i = 0; i < 4; ++i) b.add_node({}, static_cast<double>(i));
  b.add_edge(3, 1, 1.0);
  b.add_edge(3, 2, 2.0);
  graph::Graph g = b.finalize();
  EXPECT_DOUBLE_EQ(g.node_x(0), 3.0);          // hub -> id 0
  EXPECT_DOUBLE_EQ(g.node_x(3), 0.0);          // isolated -> last
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.edge_capacity(0), 1.0);   // insertion order kept
  EXPECT_DOUBLE_EQ(g.edge_capacity(1), 2.0);
}

// --- finalized-layout queries ----------------------------------------------

TEST(FinalizedLayout, FindEdgeStarGraphRegression) {
  // A hub of degree 200k: a linear find_edge probe per leaf would be
  // O(d^2) ~ 2*10^10 steps; the neighbour-sorted binary search finishes
  // the whole loop in well under a second.
  constexpr std::size_t kLeaves = 200000;
  graph::Builder b;
  b.add_nodes(kLeaves + 1);
  for (std::size_t i = 1; i <= kLeaves; ++i) {
    b.add_edge(0, static_cast<graph::NodeId>(i), 1.0);
  }
  graph::Graph g = b.finalize();
  ASSERT_EQ(g.degree(0), kLeaves);

  util::Timer timer;
  for (std::size_t i = 1; i <= kLeaves; ++i) {
    const auto leaf = static_cast<graph::NodeId>(i);
    ASSERT_EQ(g.find_edge(0, leaf), static_cast<graph::EdgeId>(i - 1));
    ASSERT_EQ(g.find_edge(leaf, 0), static_cast<graph::EdgeId>(i - 1));
  }
  EXPECT_EQ(g.find_edge(1, 2), graph::kInvalidEdge);
  // Generous wall bound (loaded CI runners): a linear-probe regression
  // would take minutes, not seconds.
  EXPECT_LT(timer.elapsed_seconds(), 10.0);
}

// --- NTB round trips -------------------------------------------------------

void expect_bit_identical(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    EXPECT_EQ(a.node_name(id), b.node_name(id));
    EXPECT_EQ(a.node_x(id), b.node_x(id));
    EXPECT_EQ(a.node_y(id), b.node_y(id));
    EXPECT_EQ(a.node_repair_cost(id), b.node_repair_cost(id));
    EXPECT_EQ(a.node_broken(id), b.node_broken(id));
  }
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    const auto id = static_cast<graph::EdgeId>(i);
    EXPECT_EQ(a.edge_endpoints(id), b.edge_endpoints(id));
    EXPECT_EQ(a.edge_capacity(id), b.edge_capacity(id));
    EXPECT_EQ(a.edge_repair_cost(id), b.edge_repair_cost(id));
    EXPECT_EQ(a.edge_broken(id), b.edge_broken(id));
  }
}

TEST(Ntb, GmlRoundTripBitIdentical) {
  // GML -> Graph -> NTB -> Graph must preserve every column bit-for-bit,
  // including names, coordinates and broken flags.
  graph::Graph original = topology::make_topology({});
  original.set_node_broken(3, true);
  original.set_edge_broken(5, true);
  graph::Graph from_gml = graph::parse_gml(graph::to_gml(original));
  const std::string image = graph::to_ntb(from_gml);
  graph::Graph restored = graph::parse_ntb(image.data(), image.size());
  expect_bit_identical(from_gml, restored);
}

TEST(Ntb, UnnamedGraphRoundTrip) {
  util::Rng rng(11);
  graph::Graph g =
      topology::make_topology(topology::ErdosRenyiOptions{.nodes = 60}, rng);
  const std::string image = graph::to_ntb(g);
  graph::Graph restored = graph::parse_ntb(image.data(), image.size());
  expect_bit_identical(g, restored);
}

TEST(Ntb, EdgeListRoundTripPreservesEdges) {
  util::Rng rng(13);
  graph::Graph g =
      topology::make_topology(topology::ErdosRenyiOptions{.nodes = 40}, rng);
  graph::Graph restored = graph::parse_edge_list(graph::to_edge_list(g));
  ASSERT_EQ(restored.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto id = static_cast<graph::EdgeId>(i);
    EXPECT_EQ(g.edge_endpoints(id), restored.edge_endpoints(id));
    EXPECT_EQ(g.edge_capacity(id), restored.edge_capacity(id));
    EXPECT_EQ(g.edge_repair_cost(id), restored.edge_repair_cost(id));
  }
}

// The file entry points wrap the in-memory codecs above; netrecd's `ntb:`
// preload and topo_convert reach them, so pin one trip through a real file
// for each format.

TEST(Ntb, FileRoundTripBitIdentical) {
  graph::Graph g = topology::make_topology({});
  g.set_node_broken(2, true);
  g.set_edge_broken(7, true);
  const std::string path = ::testing::TempDir() + "netrec_roundtrip.ntb";
  graph::save_ntb_file(g, path);
  const graph::Graph restored = graph::load_ntb_file(path);
  std::remove(path.c_str());
  expect_bit_identical(g, restored);
}

TEST(Ntb, EdgeListFileRoundTripPreservesEdges) {
  util::Rng rng(17);
  graph::Graph g =
      topology::make_topology(topology::ErdosRenyiOptions{.nodes = 40}, rng);
  const std::string path = ::testing::TempDir() + "netrec_roundtrip.edges";
  graph::save_edge_list_file(g, path);
  const graph::Graph restored = graph::load_edge_list_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(restored.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto id = static_cast<graph::EdgeId>(i);
    EXPECT_EQ(g.edge_endpoints(id), restored.edge_endpoints(id));
    EXPECT_EQ(g.edge_capacity(id), restored.edge_capacity(id));
    EXPECT_EQ(g.edge_repair_cost(id), restored.edge_repair_cost(id));
  }
}

TEST(Ntb, MissingFilesThrow) {
  const std::string path = ::testing::TempDir() + "netrec_no_such_file";
  EXPECT_THROW(graph::load_ntb_file(path), std::runtime_error);
  EXPECT_THROW(graph::load_edge_list_file(path), std::runtime_error);
}

TEST(Ntb, RejectsCorruptImages) {
  graph::Graph g = topology::make_topology({});
  const std::string image = graph::to_ntb(g);

  const auto expect_reject = [](std::string data, const char* label) {
    EXPECT_THROW(graph::parse_ntb(data.data(), data.size()),
                 std::runtime_error)
        << label;
  };

  expect_reject(image.substr(0, 10), "truncated header");
  expect_reject(image.substr(0, image.size() - 16), "truncated payload");

  std::string bad = image;
  bad[0] = 'X';
  expect_reject(bad, "bad magic");

  bad = image;
  bad[4] = 99;  // version
  expect_reject(bad, "unsupported version");

  bad = image;
  bad[8] ^= 0xFF;  // endianness tag
  expect_reject(bad, "endianness mismatch");

  bad = image;
  {
    // First section-table entry: offset (u64) lives 8 bytes into the
    // 24-byte entry that starts right after the 32-byte header.
    std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(bad.data() + 32 + 8, &huge, sizeof huge);
  }
  expect_reject(bad, "section beyond file bounds");

  bad = image;
  {
    // Make entry 1 a duplicate of entry 0 (same kind).
    std::uint32_t kind0 = 0;
    std::memcpy(&kind0, bad.data() + 32, sizeof kind0);
    std::memcpy(bad.data() + 32 + 24, &kind0, sizeof kind0);
  }
  expect_reject(bad, "duplicate section");

  expect_reject(std::string(), "empty image");
}

// --- unified generator API -------------------------------------------------

TEST(Generators, SeededParamsAreDeterministic) {
  topology::GeneratorParams params = topology::params_for("rmat");
  params.seed = 123;
  std::get<topology::RmatOptions>(params.options).nodes = 512;
  graph::Graph a = topology::make_topology(params);
  graph::Graph b = topology::make_topology(params);
  expect_bit_identical(a, b);
  EXPECT_GT(a.num_edges(), 0u);
  EXPECT_LE(a.num_nodes(), 512u);
}

TEST(Generators, RmatRespectsEdgeFactor) {
  topology::RmatOptions options;
  options.nodes = 2000;
  options.edge_factor = 4.0;
  graph::Graph g = topology::make_topology({options, 9});
  // Dedup and rejection shave the target; stay within a loose band.
  EXPECT_GT(g.num_edges(), 2000u);
  EXPECT_LE(g.num_edges(), 8000u);
}

TEST(Generators, BarabasiAlbertDegreeSum) {
  topology::BarabasiAlbertOptions options;
  options.nodes = 300;
  options.attach = 3;
  graph::Graph g = topology::make_topology({options, 5});
  EXPECT_EQ(g.num_nodes(), 300u);
  // Path seed core over attach+1 nodes, then attach edges per new node.
  EXPECT_EQ(g.num_edges(), 3u + (300u - 4u) * 3u);
  EXPECT_THROW(
      topology::make_topology({topology::BarabasiAlbertOptions{.nodes = 2,
                                                               .attach = 2},
                               1}),
      std::invalid_argument);
}

TEST(Generators, FamilyNames) {
  EXPECT_TRUE(std::holds_alternative<topology::BarabasiAlbertOptions>(
      topology::params_for("ba").options));
  EXPECT_TRUE(std::holds_alternative<topology::ErdosRenyiOptions>(
      topology::params_for("er").options));
  EXPECT_TRUE(std::holds_alternative<topology::BellCanadaOptions>(
      topology::params_for("bell_canada").options));
  EXPECT_THROW(topology::params_for("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace netrec
