// Figure 7 (a-b): Erdős–Rényi n=100, edge probability swept; 5 demand pairs
// of one unit each, capacity 1000 (connectivity-only), complete destruction.
//
// Expected shape (paper): (a) exact optimisation blows up with p while
// ISP/SRT stay flat — here the general MILP becomes intractable already at
// n=100 (its LP relaxation alone exceeds any laptop budget; see README,
// "Where netrec departs from the paper"), so OPT uses the exact
// Steiner-forest engine, whose runtime grows with p while ISP/SRT remain
// in milliseconds; (b) repairs:
// ISP close to OPT on sparse (mostly planar) graphs, the gap widening as p
// grows and the graph becomes strongly non-planar, SRT above both; at p=1
// all algorithms find the trivial 3-per-pair solution.
//
// Note: the time series measures real solver wall clock, so this driver
// defaults to --threads 1 — concurrent sibling solves would contend for
// cores and inflate the very metric the figure plots.  Raising --threads
// keeps the repair series byte-identical but biases the time series.
#include "bench/bench_common.hpp"
#include "disruption/disruption.hpp"
#include "graph/traversal.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"

namespace {

using namespace netrec;

int run(int argc, char** argv) {
  util::Flags flags;
  bench::declare_common_flags(flags, /*default_runs=*/2);
  flags.define("threads", "1",
               "worker threads (default 1: concurrent solves would inflate "
               "the Fig 7a time series)");
  flags.define("solve-threads", "1",
               "intra-solve worker threads for ISP (parallel pricing, "
               "batched SSP trees); any value reproduces the serial repair "
               "series byte-for-byte — the golden_csv test compares the "
               "CSV at 4 with the serial golden (0 = NETREC_THREADS or "
               "hardware concurrency)");
  flags.define("nodes", "100", "Erdos-Renyi node count");
  flags.define("probabilities", "0.1,0.3,0.5,0.7,0.9,1.0",
               "edge probabilities swept");
  flags.define("pairs", "5", "unit demand pairs");
  flags.define("capacity", "1000", "uniform link capacity");
  if (!bench::parse_or_usage(flags, argc, argv)) return 0;

  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes"));
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs"));
  const double capacity = flags.get_double("capacity");
  const auto solve_threads =
      static_cast<std::size_t>(flags.get_int("solve-threads"));

  scenario::SweepRunner sweep("fig7", "p", bench::runner_options(flags));
  sweep.add_algorithm(
      "ISP",
      [solve_threads](const core::RecoveryProblem& p, scenario::RunContext&) {
        core::IspOptions options;
        options.solve_threads = solve_threads;
        return core::IspSolver(p, options).solve();
      });
  sweep.add_algorithm(
      "SRT", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_srt(p);
      });
  sweep.add_algorithm(
      "OPT(exact)", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        heuristics::OptOptions oo;
        oo.time_limit_seconds = 0;  // the generic MILP is intractable here
        oo.isp_restarts = 0;
        return heuristics::solve_opt(p, oo).solution;
      });
  for (double p_edge : flags.get_double_list("probabilities")) {
    sweep.add_point(
        util::format_double(p_edge, 2),
        [nodes, pairs, capacity, p_edge](util::Rng& rng) {
          core::RecoveryProblem problem;
          topology::ErdosRenyiOptions eopt;
          eopt.nodes = nodes;
          eopt.edge_probability = p_edge;
          eopt.capacity = capacity;
          // Redraw until connected (sparse draws can disconnect).
          std::size_t attempts = 0;
          do {
            problem.graph = topology::make_topology(eopt, rng);
          } while (graph::hop_diameter(
                       graph::GraphView::build(problem.graph)) < 0 &&
                   ++attempts < 50);
          util::Rng demand_rng = rng.fork();
          problem.demands = scenario::far_apart_demands(problem.graph, pairs,
                                                        1.0, demand_rng);
          disruption::complete_destruction(problem.graph);
          return problem;
        });
  }

  const std::vector<bench::SeriesOutput> series = {
      {"Fig 7(a): execution time (seconds)",
       {.metric = "wall_seconds", .precision = 4},
       ".time.csv"},
      {"Fig 7(b): total repairs", {.metric = "total_repairs"},
       ".repairs.csv"}};
  bench::preflight(flags, series);
  bench::emit(sweep.run(), series, flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return netrec::bench::main_guard(run, argc, argv);
}
