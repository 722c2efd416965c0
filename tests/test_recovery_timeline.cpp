// recovery::Timeline differential harness and engine semantics.
//
// The load-bearing suites:
//   * TimelineDifferential* — the engine in its degenerate one-shot
//     configuration (single stage, unlimited budget, static dynamics,
//     replay policy) must reproduce the one-shot IspSolver +
//     schedule_repairs pipeline bit-identically: same repair order, and
//     per-step routed demand equal to heuristics::exact_restored_series
//     (tests/referees.hpp), a fresh LP per repaired prefix.
//   * TimelineSessionDifferential — restoration curves under *evolving*
//     dynamics (aftershocks, cascades) must reproduce
//     tests/golden/timeline_restoration.txt, recorded while the persistent
//     measurement session and one-shot LPs agreed exactly: its warm reuse
//     across disruption events must not change any recorded number.
//   * TimelineRevival — scripted re-breaks of repaired elements, where the
//     engine's epoch-bump reset on non-monotone revival must keep every
//     measurement exact.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "golden.hpp"
#include "graph/builder.hpp"
#include "heuristics/schedule.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "referees.hpp"
#include "scenario/scenario.hpp"
#include "scenario/timeline_runner.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;

using test::bell_canada_scenario;
using test::er_scenario;

/// Timeline in the one-shot configuration with the given replay policy.
recovery::TimelineResult run_one_shot(const core::RecoveryProblem& problem,
                                      recovery::ReplayPolicy& policy) {
  recovery::StaticDynamics statics;
  recovery::TimelineOptions topt;
  topt.stage_budget = 0;  // unlimited
  util::Rng rng(0);
  return recovery::Timeline(problem, policy, statics, topt).run(rng);
}

void expect_matches_schedule(const core::RecoveryProblem& problem,
                             const std::string& label) {
  SCOPED_TRACE(label);
  // Reference: the one-shot pipeline, executed by hand.
  const core::RecoverySolution plan = core::IspSolver(problem).solve();
  const auto schedule = heuristics::schedule_repairs(problem, plan);

  recovery::ReplayPolicy policy;
  const auto result = run_one_shot(problem, policy);

  // Single stage executed everything; nothing evolved.
  if (!schedule.steps.empty()) {
    ASSERT_EQ(result.stages.size(), 1u);
    EXPECT_EQ(result.stages[0].shock.total(), 0u);
  }
  EXPECT_EQ(result.total_repairs, schedule.steps.size());
  EXPECT_EQ(policy.plan().repaired_nodes, plan.repaired_nodes);
  EXPECT_EQ(policy.plan().repaired_edges, plan.repaired_edges);

  // Repair order: the schedule's, step for step.
  std::vector<heuristics::ScheduleStep> executed;
  for (const auto& rec : result.stages) {
    executed.insert(executed.end(), rec.repairs.begin(), rec.repairs.end());
  }
  ASSERT_EQ(executed.size(), schedule.steps.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    EXPECT_EQ(executed[i].is_node, schedule.steps[i].is_node) << "step " << i;
    EXPECT_EQ(executed[i].node, schedule.steps[i].node) << "step " << i;
    EXPECT_EQ(executed[i].edge, schedule.steps[i].edge) << "step " << i;
    EXPECT_EQ(executed[i].label, schedule.steps[i].label) << "step " << i;
  }

  // Per-step routed demand, exact equality (the engine's warm measurement
  // and the referee's fresh LP per repaired prefix must be the same LP
  // verdicts).
  const auto restored = result.step_series();
  const auto reference =
      heuristics::exact_restored_series(problem, plan, schedule);
  ASSERT_EQ(restored.size(), reference.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i], reference[i]) << "step " << i;
  }

  // Derived statistics flow through the same shared helpers.
  EXPECT_EQ(result.total_demand, schedule.total_demand);
  EXPECT_EQ(util::restoration_auc(restored, result.total_demand),
            util::restoration_auc(reference, schedule.total_demand));
  EXPECT_EQ(util::steps_to_fraction(restored, result.total_demand, 0.5),
            util::steps_to_fraction(reference, schedule.total_demand, 0.5));
}

class TimelineDifferentialEr : public ::testing::TestWithParam<int> {};

TEST_P(TimelineDifferentialEr, OneShotConfigMatchesSchedulePipeline) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_matches_schedule(er_scenario(seed),
                          "er seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferentialEr,
                         ::testing::Range(1, 9));

class TimelineDifferentialBellCanada : public ::testing::TestWithParam<int> {
};

TEST_P(TimelineDifferentialBellCanada, OneShotConfigMatchesSchedulePipeline) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_matches_schedule(bell_canada_scenario(seed),
                          "bell-canada seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineDifferentialBellCanada,
                         ::testing::Range(1, 6));

// --- restoration under evolving dynamics -----------------------------------

class TimelineSessionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TimelineSessionDifferential, SessionMatchesOneShotUnderDynamics) {
  // ER and Bell-Canada seed N+40, each under replan/list-order policies
  // against aftershocks and cascades.
  for (const std::string& diff :
       test::golden_diffs(test::kTimelineRestoration, test::timeline_cases(),
                          std::to_string(GetParam() + 40) + " ")) {
    ADD_FAILURE() << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineSessionDifferential,
                         ::testing::Range(1, 4));

// --- non-monotone revival: the scripted re-break torture test ---------------

/// Breaks a scripted set of elements at given stages — deterministic
/// dynamics for exercising the repair → break → repair-again cycle the
/// session's monotone column pool cannot represent without a reset.
class ScriptedDynamics : public recovery::Dynamics {
 public:
  struct Event {
    std::size_t stage;
    bool is_node;
    int id;
  };
  explicit ScriptedDynamics(std::vector<Event> events)
      : events_(std::move(events)) {}
  std::string name() const override { return "scripted"; }
  disruption::DisruptionReport advance(graph::Graph& g,
                                       const std::vector<mcf::Demand>&,
                                       std::size_t stage,
                                       util::Rng&) override {
    disruption::DisruptionReport report;
    for (const Event& event : events_) {
      if (event.stage != stage) continue;
      if (event.is_node) {
        const auto id = static_cast<graph::NodeId>(event.id);
        if (!g.node_broken(id)) {
          g.set_node_broken(id, true);
          ++report.broken_nodes;
        }
      } else {
        const auto id = static_cast<graph::EdgeId>(event.id);
        if (!g.edge_broken(id)) {
          g.set_edge_broken(id, true);
          ++report.broken_edges;
        }
      }
    }
    next_stage_ = stage + 1;
    return report;
  }
  bool exhausted() const override {
    for (const Event& event : events_) {
      if (event.stage >= next_stage_) return false;
    }
    return true;
  }

 private:
  std::vector<Event> events_;
  std::size_t next_stage_ = 0;  ///< first stage whose events have not fired
};

TEST(TimelineRevival, RepairedEdgeRebrokenAndRepairedAgainStaysExact) {
  // s - a - t in series (both edges broken initially) plus a broken 3-hop
  // detour; demand s->t.  Script: the stage after an edge of the short
  // path is repaired, break it again — the repair of the *same* edge later
  // revives a session-dead path, which must trigger the engine's epoch
  // reset rather than a stale dead-column verdict.
  core::RecoveryProblem problem;
  auto& g = problem.graph;
  graph::Builder builder;
  const auto s = builder.add_node("s");
  const auto a = builder.add_node("a");
  const auto t = builder.add_node("t");
  const auto d1 = builder.add_node("d1");
  const auto d2 = builder.add_node("d2");
  const auto sa = builder.add_edge(s, a, 10.0);
  const auto at = builder.add_edge(a, t, 10.0);
  builder.add_edge(s, d1, 10.0);
  builder.add_edge(d1, d2, 10.0);
  builder.add_edge(d2, t, 10.0);
  g = builder.finalize();
  disruption::complete_destruction(g);
  for (const auto n : {s, a, t, d1, d2}) g.set_node_broken(n, false);
  problem.demands = {{s, t, 5.0}};

  // List order repairs sa then at (stages 0 and 1, budget 1); the script
  // re-breaks sa after stage 1, so stage 2 repairs it again (sa has the
  // lowest edge id among the broken), then the detour edges follow.
  ScriptedDynamics::Event rebreak{1, false, static_cast<int>(sa)};

  recovery::TimelineOptions topt;
  topt.stage_budget = 1;
  recovery::ListOrderPolicy policy;
  ScriptedDynamics dynamics({rebreak});
  util::Rng rng(1);
  const auto result =
      recovery::Timeline(problem, policy, dynamics, topt).run(rng);
  // Stage 0: repair sa (still cut).  Stage 1: repair at (routed, then sa
  // re-breaks).  Stage 2: repair sa again — service back.
  ASSERT_GE(result.stages.size(), 3u);
  EXPECT_EQ(result.stages[0].routed_end, 0.0);
  EXPECT_EQ(result.stages[1].repairs.back().restored_after, 5.0);
  EXPECT_EQ(result.stages[1].routed_end, 0.0);  // re-broken
  EXPECT_EQ(result.stages[2].repairs.back().restored_after, 5.0);
  EXPECT_EQ(result.final_routed, 5.0);
  // sa, at, sa again, then the three detour edges.
  EXPECT_EQ(result.total_repairs, 6u);
}

// --- engine semantics --------------------------------------------------------

TEST(Timeline, BudgetPacesRepairsAcrossStages) {
  const auto problem = bell_canada_scenario(2);  // complete destruction
  recovery::ReplayPolicy policy;
  recovery::StaticDynamics statics;
  recovery::TimelineOptions topt;
  topt.stage_budget = 4;
  topt.max_stages = 128;
  util::Rng rng(0);
  const auto result =
      recovery::Timeline(problem, policy, statics, topt).run(rng);
  ASSERT_FALSE(result.stages.empty());
  for (std::size_t s = 0; s + 1 < result.stages.size(); ++s) {
    EXPECT_EQ(result.stages[s].repairs.size(), 4u) << "stage " << s;
  }
  EXPECT_LE(result.stages.back().repairs.size(), 4u);
  EXPECT_EQ(result.total_repairs, policy.plan().total_repairs());
  // Static dynamics: the restoration series is monotone non-decreasing.
  const auto series = result.step_series();
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i], series[i - 1] - 1e-9);
  }
}

TEST(Timeline, StopsImmediatelyWhenNothingIsBroken) {
  core::RecoveryProblem problem;
  problem.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng rng(3);
  problem.demands = scenario::far_apart_demands(problem.graph, 2, 1.0, rng);
  recovery::ListOrderPolicy policy;
  recovery::StaticDynamics statics;
  util::Rng run_rng(0);
  const auto result =
      recovery::Timeline(problem, policy, statics, {}).run(run_rng);
  EXPECT_TRUE(result.stages.empty());
  EXPECT_EQ(result.total_repairs, 0u);
  EXPECT_EQ(result.initial_routed, result.total_demand);
  EXPECT_EQ(result.final_routed, result.total_demand);
  EXPECT_EQ(result.restoration_auc(), 1.0);
}

TEST(Timeline, ShockOnlyStagesRecordAfterPolicyExhausts) {
  // Replay policy under aftershocks: once the (initial-damage) plan is
  // executed the policy idles, but the sequence keeps firing — the engine
  // must keep recording shock-only stages until it exhausts.
  const auto problem = er_scenario(3);
  recovery::ReplayPolicy policy;
  disruption::AftershockOptions aopts;
  aopts.first.variance = 60.0;
  aopts.max_shocks = 6;
  recovery::AftershockDynamics aftershocks(aopts);
  recovery::TimelineOptions topt;
  topt.stage_budget = 0;  // whole plan in stage 0
  util::Rng rng(11);
  const auto result =
      recovery::Timeline(problem, policy, aftershocks, topt).run(rng);
  // All 6 shocks fired: stage 0 (plan + shock 1) plus 5 shock-only stages.
  EXPECT_EQ(result.stages.size(), 6u);
  for (std::size_t s = 1; s < result.stages.size(); ++s) {
    EXPECT_TRUE(result.stages[s].repairs.empty());
  }
}

TEST(Timeline, SeriesHelpersPadAndFlatten) {
  recovery::TimelineResult result;
  result.total_demand = 10.0;
  result.final_routed = 8.0;
  auto step = [](double restored_after) {
    heuristics::ScheduleStep s;
    s.restored_after = restored_after;
    return s;
  };
  recovery::StageRecord s0;
  s0.repairs = {step(2.0), step(5.0)};
  s0.routed_end = 5.0;
  recovery::StageRecord s1;
  s1.repairs = {step(8.0)};
  s1.routed_end = 8.0;
  result.stages = {s0, s1};
  EXPECT_EQ(result.step_series(),
            (std::vector<double>{2.0, 5.0, 8.0}));
  EXPECT_EQ(result.stage_series(), (std::vector<double>{5.0, 8.0}));
  EXPECT_EQ(result.stage_series(4),
            (std::vector<double>{5.0, 8.0, 8.0, 8.0}));
  EXPECT_DOUBLE_EQ(result.restoration_auc(4), (0.5 + 3 * 0.8) / 4.0);
  EXPECT_EQ(result.stages_to_restore(0.8), 2u);
}

// --- policies ----------------------------------------------------------------

TEST(Policies, ListOrderCoversEverythingInIdOrder) {
  auto problem = bell_canada_scenario(2);  // complete destruction
  recovery::ListOrderPolicy policy;
  util::Rng rng(0);
  const auto actions = policy.plan_stage(
      problem, 0, static_cast<std::size_t>(-1), rng);
  ASSERT_EQ(actions.size(),
            problem.graph.num_nodes() + problem.graph.num_edges());
  for (std::size_t i = 0; i < problem.graph.num_nodes(); ++i) {
    EXPECT_TRUE(actions[i].is_node);
    EXPECT_EQ(actions[i].node, static_cast<graph::NodeId>(i));
  }
  EXPECT_FALSE(actions[problem.graph.num_nodes()].is_node);
}

TEST(Policies, RandomIsDeterministicPerSeedAndRespectsBudget) {
  auto problem = bell_canada_scenario(2);
  recovery::RandomPolicy policy;
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const auto a = policy.plan_stage(problem, 0, 7, rng_a);
  const auto b = policy.plan_stage(problem, 0, 7, rng_b);
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(b.size(), 7u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].is_node, b[i].is_node);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].edge, b[i].edge);
  }
}

TEST(Policies, BetweennessGreedyRanksHubsFirst) {
  // Star: the hub dominates betweenness; with everything broken the hub
  // must be the first repair.
  core::RecoveryProblem problem;
  auto& g = problem.graph;
  graph::Builder builder;
  const auto hub = builder.add_node("hub");
  for (int leaf = 0; leaf < 5; ++leaf) {
    const auto n = builder.add_node("leaf" + std::to_string(leaf));
    builder.add_edge(hub, n, 1.0);
  }
  g = builder.finalize();
  disruption::complete_destruction(g);
  recovery::BetweennessGreedyPolicy policy;
  util::Rng rng(0);
  const auto actions = policy.plan_stage(problem, 0, 3, rng);
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_TRUE(actions[0].is_node);
  EXPECT_EQ(actions[0].node, hub);
}

TEST(Policies, ReplanAdaptsToDamageTheInitialPlanNeverSaw) {
  // Two disjoint 2-edge routes; only the top one broken initially.  The
  // replay policy plans for the top route; a scripted break then severs the
  // bottom route *after* the plan executes.  Replay strands the demand;
  // replan repairs the new damage and restores it.
  core::RecoveryProblem problem;
  auto& g = problem.graph;
  graph::Builder builder;
  const auto s = builder.add_node("s");
  const auto a = builder.add_node("a");
  const auto t = builder.add_node("t");
  const auto b = builder.add_node("b");
  const auto sa = builder.add_edge(s, a, 10.0);
  const auto at = builder.add_edge(a, t, 10.0);
  const auto sb = builder.add_edge(s, b, 10.0);
  builder.add_edge(b, t, 10.0);
  g = builder.finalize();
  g.set_edge_broken(sa, true);
  g.set_edge_broken(at, true);
  problem.demands = {{s, t, 5.0}};

  // Break sa again and also sb at stage 1 (after the stage-0/1 repairs).
  const std::vector<ScriptedDynamics::Event> script{
      {1, false, static_cast<int>(sa)},
      {1, false, static_cast<int>(sb)},
  };
  recovery::TimelineOptions topt;
  topt.stage_budget = 1;

  util::Rng rng1(1);
  recovery::ReplayPolicy replay;
  ScriptedDynamics dyn1(script);
  const auto stale =
      recovery::Timeline(problem, replay, dyn1, topt).run(rng1);
  EXPECT_LT(stale.final_routed, 5.0);  // the static plan never recovers

  util::Rng rng2(1);
  recovery::ReplanPolicy replan;
  ScriptedDynamics dyn2(script);
  const auto adaptive =
      recovery::Timeline(problem, replan, dyn2, topt).run(rng2);
  EXPECT_EQ(adaptive.final_routed, 5.0);
  EXPECT_GT(adaptive.total_repairs, stale.total_repairs);
}

// --- runner ------------------------------------------------------------------

scenario::ProblemFactory runner_factory() {
  return [](util::Rng& rng) {
    core::RecoveryProblem problem;
    problem.graph = topology::make_topology({topology::BellCanadaOptions{}});
    util::Rng demand_rng = rng.fork();
    problem.demands =
        scenario::far_apart_demands(problem.graph, 3, 3.0, demand_rng);
    disruption::GaussianDisasterOptions gopt;
    gopt.variance = 80.0;
    disruption::gaussian_disaster(problem.graph, gopt, rng);
    return problem;
  };
}

/// fig_recovery's roster: every policy under every dynamics model, with the
/// driver's default aftershock and cascade settings.
std::vector<std::pair<std::string, scenario::PolicyFactory>> all_policies() {
  std::vector<std::pair<std::string, scenario::PolicyFactory>> policies;
  policies.emplace_back("replay", [] {
    return std::make_unique<recovery::ReplayPolicy>();
  });
  policies.emplace_back("replan", [] {
    return std::make_unique<recovery::ReplanPolicy>();
  });
  policies.emplace_back("betweenness", [] {
    return std::make_unique<recovery::BetweennessGreedyPolicy>();
  });
  policies.emplace_back("list", [] {
    return std::make_unique<recovery::ListOrderPolicy>();
  });
  policies.emplace_back("random", [] {
    return std::make_unique<recovery::RandomPolicy>();
  });
  return policies;
}

std::vector<std::pair<std::string, scenario::DynamicsFactory>> all_dynamics() {
  std::vector<std::pair<std::string, scenario::DynamicsFactory>> dynamics;
  dynamics.emplace_back("static", [] {
    return std::make_unique<recovery::StaticDynamics>();
  });
  dynamics.emplace_back("aftershock", [] {
    disruption::AftershockOptions opts;
    opts.first.variance = 35.0;
    opts.decay = 0.5;
    opts.max_shocks = 3;
    return std::make_unique<recovery::AftershockDynamics>(opts);
  });
  dynamics.emplace_back("cascade", [] {
    disruption::CascadeOptions opts;
    opts.overload_factor = 0.3;
    return std::make_unique<recovery::CascadeDynamics>(opts);
  });
  return dynamics;
}

TEST(TimelineRunner, AggregatesAreThreadCountInvariant) {
  const auto policies = all_policies();
  const auto dynamics = all_dynamics();
  recovery::TimelineOptions timeline;
  timeline.stage_budget = 5;
  timeline.max_stages = 32;
  scenario::RunnerOptions options;
  options.runs = 3;
  options.seed = 99;

  options.threads = 1;
  const auto serial = scenario::run_timelines(runner_factory(), policies,
                                              dynamics, timeline, options);
  options.threads = 4;
  const auto parallel = scenario::run_timelines(runner_factory(), policies,
                                                dynamics, timeline, options);

  ASSERT_EQ(serial.cell_names, parallel.cell_names);
  ASSERT_EQ(serial.cell_names.size(), 15u);
  EXPECT_EQ(serial.cell_names.front(), "replay@static");
  EXPECT_EQ(serial.cell_names.back(), "random@cascade");
  EXPECT_EQ(serial.completed_runs, parallel.completed_runs);
  for (const std::string& cell : serial.cell_names) {
    for (const std::string& metric :
         {"restoration_auc", "stages", "total_repairs", "repair_cost",
          "final_pct", "stages_to_90", "shock_breaks"}) {
      EXPECT_EQ(serial.per_cell.at(cell).get(metric).mean(),
                parallel.per_cell.at(cell).get(metric).mean())
          << cell << " / " << metric;
      EXPECT_EQ(serial.per_cell.at(cell).get(metric).stddev(),
                parallel.per_cell.at(cell).get(metric).stddev())
          << cell << " / " << metric;
    }
  }
  for (const std::string& metric :
       {"broken_nodes", "broken_edges", "broken_total", "total_demand"}) {
    EXPECT_EQ(serial.instance.get(metric).mean(),
              parallel.instance.get(metric).mean())
        << metric;
  }
  // Sanity: every cell aggregated every run.
  for (const std::string& cell : serial.cell_names) {
    EXPECT_EQ(serial.per_cell.at(cell).get("restoration_auc").count(), 3u);
  }
}

TEST(TimelineRunner, EmptyPolicyOrDynamicsListThrows) {
  const recovery::TimelineOptions timeline;
  scenario::RunnerOptions options;
  options.runs = 1;
  options.threads = 1;
  EXPECT_THROW(scenario::run_timelines(runner_factory(), {}, all_dynamics(),
                                       timeline, options),
               std::invalid_argument);
  EXPECT_THROW(scenario::run_timelines(runner_factory(), all_policies(), {},
                                       timeline, options),
               std::invalid_argument);
}

}  // namespace
