// Figure 9 (a-b): CAIDA-like AS topology (825 nodes / 1018 edges), complete
// destruction, 22 flow units per pair, pairs swept 1..6.
//
// Expected shape (paper): ISP close to OPT with zero demand loss; SRT's
// repair count is comparable but its satisfied demand drops substantially as
// pairs' shortest paths collide on capacity.  The greedy pool heuristics do
// not scale to this topology and are skipped exactly as in the paper.
// OPT at this scale is best-found (randomised ISP restarts + local search);
// README's "Where netrec departs from the paper" carries the caveat.
#include "bench/bench_common.hpp"
#include "disruption/disruption.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"

namespace {

using namespace netrec;

int run(int argc, char** argv) {
  util::Flags flags;
  bench::declare_common_flags(flags, /*default_runs=*/2);
  flags.define("pairs-max", "6", "sweep demand pairs 1..pairs-max");
  flags.define("flow", "22", "demand flow per pair");
  flags.define("capacity", "30", "uniform link capacity");
  flags.define("topology-seed", "77", "CAIDA-like generator seed");
  if (!bench::parse_or_usage(flags, argc, argv)) return 0;

  const double flow = flags.get_double("flow");

  topology::CaidaLikeOptions copt;
  copt.capacity = flags.get_double("capacity");
  util::Rng topo_rng(
      static_cast<std::uint64_t>(flags.get_int("topology-seed")));
  const graph::Graph base = topology::make_topology(copt, topo_rng);
  std::printf("[fig9] topology: %zu nodes, %zu edges\n", base.num_nodes(),
              base.num_edges());

  scenario::RunnerOptions ropt = bench::runner_options(flags);
  ropt.require_feasible = true;

  scenario::SweepRunner sweep("fig9", "pairs", ropt);
  sweep.add_algorithm(
      "ISP", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return core::IspSolver(p).solve();
      });
  sweep.add_algorithm(
      "OPT", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        heuristics::OptOptions oo;
        oo.time_limit_seconds = 0;  // no MILP at 825 nodes; best-found
        return heuristics::solve_opt(p, oo).solution;
      });
  sweep.add_algorithm(
      "SRT", [](const core::RecoveryProblem& p, scenario::RunContext&) {
        return heuristics::solve_srt(p);
      });
  for (int pairs = 1; pairs <= flags.get_int("pairs-max"); ++pairs) {
    sweep.add_point(std::to_string(pairs), [&base, pairs, flow](
                                               util::Rng& rng) {
      core::RecoveryProblem p;
      p.graph = base;
      p.demands = scenario::far_apart_demands(
          p.graph, static_cast<std::size_t>(pairs), flow, rng);
      disruption::complete_destruction(p.graph);
      return p;
    });
  }

  const std::vector<bench::SeriesOutput> series = {
      {"Fig 9(a): total repairs", {.metric = "total_repairs"}, ".total.csv"},
      {"Fig 9(b): satisfied demand %", {.metric = "satisfied_pct"},
       ".satisfied.csv"}};
  bench::preflight(flags, series);
  bench::emit(sweep.run(), series, flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return netrec::bench::main_guard(run, argc, argv);
}
