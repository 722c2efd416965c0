// Timing gates.  Registered only for Release builds without sanitizers and
// run serially (ctest label "perf"): a speed floor means nothing in an
// instrumented build or next to other tests competing for the cores.
//
//   * NtbLoad — the binary topology format must load an RMAT n=10^4 graph
//     (edge factor 8, seed 7) at least 10x faster than GML parses it.
//   * BetweennessSpeedup — parallel Brandes on ER n=300 must be
//     bit-identical to the serial run and at least 1.5x faster at 4
//     threads; the floor is skipped on hosts with fewer than 4 hardware
//     threads, identity is not.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/betweenness.hpp"
#include "graph/gml.hpp"
#include "graph/ntb.hpp"
#include "graph/view.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
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

/// Mean seconds of three runs of `run`.
template <typename Run>
double mean_of_three(const Run& run) {
  util::Timer timer;
  for (int r = 0; r < 3; ++r) run();
  return timer.elapsed_seconds() / 3.0;
}

TEST(BetweennessSpeedup, AtLeastOnePointFiveAtFourThreads) {
  util::Rng rng(42);
  topology::ErdosRenyiOptions er;
  er.nodes = 300;
  er.edge_probability = 0.03;
  const graph::Graph g = topology::make_topology(er, rng);
  const graph::GraphView view = graph::GraphView::working(g);

  // Each side: one untimed run (the serial reference, the parallel
  // identity check), then the mean of three timed runs.
  const std::vector<double> serial = graph::betweenness_centrality(view);
  const double serial_seconds =
      mean_of_three([&] { graph::betweenness_centrality(view); });
  util::ThreadPool pool(4);
  EXPECT_EQ(graph::betweenness_centrality(view, &pool), serial);
  const double parallel_seconds =
      mean_of_three([&] { graph::betweenness_centrality(view, &pool); });

  const double speedup = serial_seconds / parallel_seconds;
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("betweenness at 4 threads: %.2fx (%u hardware threads)\n",
              speedup, hardware);
  if (hardware < 4) {
    GTEST_SKIP() << "speedup floor needs 4 hardware threads; measured "
                 << speedup << "x on " << hardware;
  }
  EXPECT_GE(speedup, 1.5);
}

}  // namespace
