// Progressive recovery: turning ISP's repair *set* into a repair *schedule*.
//
// ISP decides what to repair; field crews need an order.  The
// heuristics::schedule_repairs module orders the set so restored demand
// front-loads (the objective of Wang, Qiao & Yu, INFOCOM 2011 — the paper's
// ref. [32]).  This example runs that schedule through recovery::Timeline in
// its degenerate one-shot configuration — a single stage with unlimited
// crew budget and static dynamics, which the differential suite pins
// bit-identical to executing the schedule by hand — and prints the
// resulting restoration curve, comparing it against executing the same
// repairs in plain list order.
//
//   $ ./progressive_recovery [--pairs 4] [--flow 10] [--seed 11]
#include <cstdio>

#include "netrec.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace netrec;

  util::Flags flags;
  flags.define("pairs", "4", "number of critical demand pairs");
  flags.define("flow", "10", "flow units per pair");
  flags.define("seed", "11", "random seed");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage(argv[0]).c_str(), stdout);
    return 0;
  }

  core::RecoveryProblem problem;
  problem.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  problem.demands = scenario::far_apart_demands(
      problem.graph, static_cast<std::size_t>(flags.get_int("pairs")),
      flags.get_double("flow"), rng);
  disruption::complete_destruction(problem.graph);

  // One-shot configuration: everything in stage 0, nothing evolves.
  recovery::TimelineOptions topt;
  topt.stage_budget = 0;  // unlimited
  recovery::StaticDynamics statics;
  util::Rng timeline_rng(0);  // static runs consume no randomness

  recovery::ReplayPolicy policy;
  const auto result =
      recovery::Timeline(problem, policy, statics, topt).run(timeline_rng);
  const auto restored = result.step_series();
  std::vector<heuristics::ScheduleStep> steps;
  for (const auto& rec : result.stages) {
    steps.insert(steps.end(), rec.repairs.begin(), rec.repairs.end());
  }

  std::printf("ISP plan: %zu repairs for %.0f units of critical demand\n\n",
              policy.plan().total_repairs(), problem.total_demand());

  std::printf("%-6s %-34s %10s\n", "step", "intervention", "restored");
  double prev = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const double pct = 100.0 * restored[i] / problem.total_demand();
    std::printf("%-6zu %-34s %9.1f%%%s\n", i + 1, steps[i].label.c_str(), pct,
                restored[i] > prev + 1e-9 ? "  <-- service gain" : "");
    prev = restored[i];
  }

  std::printf("\nschedule quality:\n");
  std::printf("  restoration AUC           %.3f (1.0 = instant)\n",
              util::restoration_auc(restored, result.total_demand));
  std::printf("  steps to 50%% restored     %zu\n",
              util::steps_to_fraction(restored, result.total_demand, 0.5));
  std::printf("  steps to 100%% restored    %zu of %zu\n",
              util::steps_to_fraction(restored, result.total_demand, 1.0),
              restored.size());

  // Baseline: same repairs, plain list order (nodes then edges).
  {
    recovery::ReplayOptions lopt;
    lopt.schedule_order = false;
    recovery::ReplayPolicy list_policy(lopt);
    const auto baseline =
        recovery::Timeline(problem, list_policy, statics, topt)
            .run(timeline_rng);
    std::printf("  list-order AUC (baseline) %.3f\n",
                util::restoration_auc(baseline.step_series(),
                                      baseline.total_demand));
  }
  return 0;
}
