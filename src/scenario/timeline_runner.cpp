#include "scenario/timeline_runner.hpp"

#include <stdexcept>

namespace netrec::scenario {

namespace {

void record_timeline(const recovery::TimelineResult& result,
                     std::size_t auc_horizon, util::MetricSet& metrics) {
  metrics.add("restoration_auc", result.restoration_auc(auc_horizon));
  metrics.add("stages", static_cast<double>(result.stages.size()));
  metrics.add("total_repairs", static_cast<double>(result.total_repairs));
  metrics.add("repair_cost", result.total_repair_cost);
  metrics.add("final_pct", result.total_demand > 0.0
                               ? 100.0 * result.final_routed /
                                     result.total_demand
                               : 100.0);
  // Padded to the shared horizon like the AUC, so a run that plateaus below
  // 90% and stops early records the same horizon+1 sentinel as one that
  // keeps repairing — comparable across cells.
  metrics.add("stages_to_90",
              static_cast<double>(util::steps_to_fraction(
                  result.stage_series(auc_horizon), result.total_demand,
                  0.9)));
  metrics.add("shock_breaks", static_cast<double>(result.shock_breaks));
  metrics.add("wall_seconds", result.wall_seconds);
}

}  // namespace

std::string timeline_cell_name(const std::string& policy,
                               const std::string& dynamics) {
  return policy + "@" + dynamics;
}

AggregateResult run_timelines(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, PolicyFactory>>& policies,
    const std::vector<std::pair<std::string, DynamicsFactory>>& dynamics,
    const recovery::TimelineOptions& timeline,
    const RunnerOptions& options) {
  if (policies.empty() || dynamics.empty()) {
    throw std::invalid_argument(
        "run_timelines: need at least one policy and one dynamics");
  }
  std::vector<std::pair<std::string, Cell>> cells;
  cells.reserve(policies.size() * dynamics.size());
  for (const auto& [policy_name, make_policy] : policies) {
    for (const auto& [dynamics_name, make_dynamics] : dynamics) {
      cells.emplace_back(
          timeline_cell_name(policy_name, dynamics_name),
          [&make_policy = make_policy, &make_dynamics = make_dynamics,
           &timeline](const core::RecoveryProblem& problem,
                      RunContext& ctx) -> CellRecord {
            const std::unique_ptr<recovery::Policy> policy = make_policy();
            const std::unique_ptr<recovery::Dynamics> dyn = make_dynamics();
            recovery::Timeline staged(problem, *policy, *dyn, timeline);
            return [result = staged.run(ctx.rng),
                    horizon = timeline.max_stages](util::MetricSet& metrics) {
              record_timeline(result, horizon, metrics);
            };
          });
    }
  }
  return run_matrix(factory, cells, options);
}

}  // namespace netrec::scenario
