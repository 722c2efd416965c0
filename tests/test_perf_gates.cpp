// Timing and memory gates.  Registered only for Release builds without
// sanitizers and run serially (ctest label "perf"): a speed floor means
// nothing in an instrumented build or next to other tests competing for the
// cores, and a sanitizer's shadow memory swamps a peak-RSS bound.
//
//   * NtbLoad — the binary topology format must load an RMAT n=10^4 graph
//     (edge factor 8, seed 7) at least 10x faster than GML parses it.
//   * Placement — far-apart demand placement on a Barabasi-Albert n=10^4
//     graph (eight pairs, factor 0.5, RNG seed 7) must raise the process's
//     peak RSS by less than 64 MB.  Its near matrix takes V^2 / 8 = 12.5 MB;
//     listing all 3.6 * 10^7 admissible pairs, as placement once did,
//     raised the peak by 291 MB.  gtest_discover_tests runs each test in
//     its own process, so the peak before placement is this test's own.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "graph/gml.hpp"
#include "graph/ntb.hpp"
#include "scenario/scenario.hpp"
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

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TEST(Placement, Ba10000PeakRssUnder64MB) {
  topology::BarabasiAlbertOptions ba;
  ba.nodes = 10000;
  const graph::Graph g = topology::make_topology({ba, 1});
  const double before = peak_rss_mb();
  util::Rng rng(7);
  const auto demands = scenario::far_apart_demands(g, 8, 10.0, rng);
  const double raised = peak_rss_mb() - before;
  std::printf("BA n=%zu placement: %zu demands, peak RSS +%.1f MB\n",
              g.num_nodes(), demands.size(), raised);
  ASSERT_EQ(demands.size(), 8u);
  EXPECT_LT(raised, 64.0);
}

}  // namespace
