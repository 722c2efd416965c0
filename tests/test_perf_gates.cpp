// Timing gate.  Registered only for Release builds without sanitizers and
// run serially (ctest label "perf"): a speed floor means nothing in an
// instrumented build or next to other tests competing for the cores.
//
//   * NtbLoad — the binary topology format must load an RMAT n=10^4 graph
//     (edge factor 8, seed 7) at least 10x faster than GML parses it.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "graph/gml.hpp"
#include "graph/ntb.hpp"
#include "topology/generator.hpp"
#include "util/timer.hpp"

namespace {

using namespace netrec;

TEST(NtbLoad, AtLeastTenTimesFasterThanGmlParse) {
  topology::RmatOptions rmat;
  rmat.nodes = 10000;
  rmat.edge_factor = 8.0;
  const graph::Graph g = topology::make_topology({rmat, 7});
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string stem = "netrec_perf_gate_" + std::to_string(::getpid());
  const std::string ntb = (dir / (stem + ".ntb")).string();
  const std::string gml = (dir / (stem + ".gml")).string();
  graph::save_ntb_file(g, ntb);
  graph::save_gml_file(g, gml);

  util::Timer timer;
  const graph::Graph from_ntb = graph::load_ntb_file(ntb);
  const double ntb_seconds = timer.elapsed_seconds();
  timer.reset();
  const graph::Graph from_gml = graph::load_gml_file(gml);
  const double gml_seconds = timer.elapsed_seconds();
  std::filesystem::remove(ntb);
  std::filesystem::remove(gml);

  ASSERT_EQ(from_ntb.num_edges(), g.num_edges());
  ASSERT_EQ(from_gml.num_edges(), g.num_edges());
  const double speedup = gml_seconds / ntb_seconds;
  std::printf("n=%zu: .ntb load %.4fs, GML parse %.4fs, %.1fx\n",
              g.num_nodes(), ntb_seconds, gml_seconds, speedup);
  EXPECT_GE(speedup, 10.0);
}

}  // namespace
