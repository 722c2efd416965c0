#include "serve/engine.hpp"

#include <memory>
#include <utility>

#include "heuristics/baselines.hpp"
#include "heuristics/schedule.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace netrec::serve {

namespace {

/// RAII damage state: applies the request's broken flags on construction,
/// clears them on destruction (also on exception), so the engine's graph
/// returns to fully-operational between requests.
class ScopedDamage {
 public:
  ScopedDamage(graph::Graph& g, const PlanRequest& request)
      : g_(g), request_(request) {
    for (graph::NodeId n : request_.broken_nodes) g_.set_node_broken(n, true);
    for (graph::EdgeId e : request_.broken_edges) g_.set_edge_broken(e, true);
  }
  ~ScopedDamage() {
    for (graph::NodeId n : request_.broken_nodes) {
      g_.set_node_broken(n, false);
    }
    for (graph::EdgeId e : request_.broken_edges) {
      g_.set_edge_broken(e, false);
    }
  }
  ScopedDamage(const ScopedDamage&) = delete;
  ScopedDamage& operator=(const ScopedDamage&) = delete;

 private:
  graph::Graph& g_;
  const PlanRequest& request_;
};

/// Clears the engine's deadline pointer when the solve leaves scope — the
/// Deadline it points at is a stack local of solve().
class ScopedDeadline {
 public:
  ScopedDeadline(core::IspOptions& isp, const util::Deadline* deadline)
      : isp_(isp) {
    isp_.deadline = deadline;
  }
  ~ScopedDeadline() { isp_.deadline = nullptr; }
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  core::IspOptions& isp_;
};

util::Json repair_entry(const heuristics::ScheduleStep& step) {
  util::Json entry = util::Json::object();
  entry.set("kind", step.is_node ? "node" : "edge");
  entry.set("id", static_cast<double>(step.is_node ? step.node : step.edge));
  entry.set("label", step.label);
  return entry;
}

/// Shared isp-shaped payload builder: the full ISP solve and the degraded
/// SRT fallback emit the same schema, differing only in the solution they
/// schedule — which is what makes the degraded differential (response ==
/// heuristic_plan byte-identically) checkable at all.
util::Json isp_payload(const core::RecoveryProblem& problem,
                       const core::RecoverySolution& solution,
                       util::ThreadPool* pool) {
  const heuristics::RecoverySchedule schedule =
      heuristics::schedule_repairs(problem, solution, pool);

  util::Json repairs = util::Json::array();
  for (const heuristics::ScheduleStep& step : schedule.steps) {
    util::Json entry = repair_entry(step);
    entry.set("restored_after", step.restored_after);
    repairs.push_back(std::move(entry));
  }

  util::Json restoration = util::Json::object();
  restoration.set("series", [&] {
    util::Json series = util::Json::array();
    for (double v : schedule.restored_series()) series.push_back(v);
    return series;
  }());
  restoration.set("auc", schedule.restoration_auc());
  restoration.set("steps_to_90", schedule.steps_to_restore(0.9));

  // No wall-clock fields: the payload must be a pure function of the
  // request so cache hits are byte-identical to fresh solves.
  util::Json out = util::Json::object();
  out.set("mode", "isp");
  out.set("algorithm", solution.algorithm);
  out.set("feasible", solution.instance_feasible);
  out.set("total_demand", schedule.total_demand);
  out.set("satisfied_fraction", solution.satisfied_fraction);
  out.set("repair_cost", solution.repair_cost);
  out.set("total_repairs", solution.total_repairs());
  out.set("iterations", solution.iterations);
  out.set("repairs", std::move(repairs));
  out.set("restoration", std::move(restoration));
  return out;
}

}  // namespace

PlanningEngine::PlanningEngine(const core::RecoveryProblem& baseline,
                               EngineOptions options)
    : problem_(baseline), opt_(std::move(options)) {
  // The request is the complete damage state; any damage the loaded
  // topology carried would silently compound every plan.
  for (std::size_t n = 0; n < problem_.graph.num_nodes(); ++n) {
    problem_.graph.set_node_broken(static_cast<graph::NodeId>(n), false);
  }
  for (std::size_t e = 0; e < problem_.graph.num_edges(); ++e) {
    problem_.graph.set_edge_broken(static_cast<graph::EdgeId>(e), false);
  }
  // One warm pool for the engine's lifetime instead of a spawn per solve.
  pool_ = util::ThreadPool::acquire(owned_pool_, opt_.solve_threads, nullptr);
  opt_.isp.pool = pool_;
  opt_.isp.solve_threads = opt_.solve_threads;
}

PlanOutcome PlanningEngine::solve(const PlanRequest& request) {
  if (FAULT_POINT("engine.solve")) {
    // Worker-killing crash: InjectedCrash is not a std::exception, so it
    // unwinds straight through the request path to the worker loop and
    // exercises the supervisor's respawn.
    throw util::fault::InjectedCrash{"engine.solve"};
  }
  ScopedDamage damage(problem_.graph, request);
  const util::Deadline deadline(opt_.deadline_ms / 1e3);  // <=0 disables
  ScopedDeadline scoped(opt_.isp, opt_.deadline_ms > 0.0 ? &deadline
                                                         : nullptr);
  try {
    util::Json payload = request.mode == PlanRequest::Mode::kIsp
                             ? solve_isp(request)
                             : solve_timeline(request);
    return {std::move(payload), false};
  } catch (const core::DeadlineExceeded&) {
    // Graceful degradation: the damage scope is still active, so the
    // fallback plans against exactly the requested state.
    return {heuristic_plan_damaged(), true};
  }
}

util::Json PlanningEngine::heuristic_plan(const PlanRequest& request) {
  ScopedDamage damage(problem_.graph, request);
  return heuristic_plan_damaged();
}

util::Json PlanningEngine::heuristic_plan_damaged() {
  return isp_payload(problem_, heuristics::solve_srt(problem_), pool_);
}

util::Json PlanningEngine::solve_isp(const PlanRequest&) {
  core::IspSolver solver(problem_, opt_.isp);
  return isp_payload(problem_, solver.solve(), pool_);
}

util::Json PlanningEngine::solve_timeline(const PlanRequest& request) {
  std::unique_ptr<recovery::Policy> policy;
  if (request.policy == PlanRequest::Policy::kReplay) {
    recovery::ReplayOptions ropt;
    ropt.isp = opt_.isp;
    policy = std::make_unique<recovery::ReplayPolicy>(ropt);
  } else {
    policy = std::make_unique<recovery::ReplanPolicy>(opt_.isp);
  }
  recovery::StaticDynamics dynamics;

  recovery::TimelineOptions topt;
  topt.stage_budget = request.stage_budget;
  topt.max_stages = request.max_stages;
  topt.pool = pool_;

  util::Rng rng(request.seed);
  const recovery::TimelineResult result =
      recovery::Timeline(problem_, *policy, dynamics, topt).run(rng);

  util::Json repairs = util::Json::array();
  for (const recovery::StageRecord& stage : result.stages) {
    for (const heuristics::ScheduleStep& step : stage.repairs) {
      util::Json entry = repair_entry(step);
      entry.set("stage", stage.stage);
      repairs.push_back(std::move(entry));
    }
  }

  util::Json restoration = util::Json::object();
  restoration.set("series", [&] {
    util::Json series = util::Json::array();
    for (double v : result.stage_series(request.max_stages)) {
      series.push_back(v);
    }
    return series;
  }());
  restoration.set("auc", result.restoration_auc(request.max_stages));
  restoration.set("stages_to_90", result.stages_to_restore(0.9));

  util::Json out = util::Json::object();
  out.set("mode", "timeline");
  out.set("policy", result.policy);
  out.set("total_demand", result.total_demand);
  out.set("initial_routed", result.initial_routed);
  out.set("final_routed", result.final_routed);
  out.set("repair_cost", result.total_repair_cost);
  out.set("total_repairs", result.total_repairs);
  out.set("stages", result.stages.size());
  out.set("repairs", std::move(repairs));
  out.set("restoration", std::move(restoration));
  return out;
}

}  // namespace netrec::serve
