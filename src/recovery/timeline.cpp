#include "recovery/timeline.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "graph/view_cache.hpp"
#include "mcf/path_lp_session.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace netrec::recovery {

std::vector<double> TimelineResult::stage_series(std::size_t horizon) const {
  std::vector<double> series;
  series.reserve(std::max(horizon, stages.size()));
  for (const StageRecord& rec : stages) series.push_back(rec.routed_end);
  const double tail = series.empty() ? final_routed : series.back();
  while (series.size() < horizon) series.push_back(tail);
  return series;
}

std::vector<double> TimelineResult::step_series() const {
  std::vector<double> series;
  for (const StageRecord& rec : stages) {
    for (const heuristics::ScheduleStep& step : rec.repairs) {
      series.push_back(step.restored_after);
    }
  }
  return series;
}

double TimelineResult::restoration_auc(std::size_t horizon) const {
  // A zero-stage run (nothing broken, policy idle) has an empty stage
  // series; pad to at least one point so the AUC reports the actual routed
  // fraction instead of util::restoration_auc's degenerate 0.
  return util::restoration_auc(stage_series(std::max<std::size_t>(horizon, 1)),
                               total_demand);
}

std::size_t TimelineResult::stages_to_restore(double fraction) const {
  return util::steps_to_fraction(stage_series(), total_demand, fraction);
}

namespace {

/// The engine's per-run measurement state: the live problem, one cached
/// "operational" snapshot, and one persistent kMaxRouted PathLpSession fed
/// by the cache's mutation fan-out.
class Runtime {
 public:
  Runtime(core::RecoveryProblem& live, util::ThreadPool* pool)
      : live_(live),
        g_(live.graph),
        cache_(live.graph),
        session_(live.graph, mcf::PathLpMode::kMaxRouted) {
    graph::ViewConfig operational;
    // Endpoints folded into the edge filter: a node break or repair reaches
    // the cache as invalidate_node, which queues the incident edges, and
    // the flipped verdict escalates to a rebuild.
    operational.edge_ok = graph::working_edge_filter(g_);
    slot_ = cache_.add_config(std::move(operational));
    session_.set_thread_pool(pool);
    cache_.add_listener(&session_);
    // Demand amounts never change across stages, so the original index is
    // a stable session uid.
    specs_ = mcf::indexed_specs(live_.demands);
    edge_died_.assign(g_.num_edges(), 0);
  }

  /// Max routed demand over the operational subgraph, static capacities.
  /// Memoized until the next repair or dynamics break.
  double measure() {
    if (!measure_stale_) return last_routed_;
    last_routed_ =
        session_.solve(cache_.view(slot_), specs_).routing.total_routed;
    measure_stale_ = false;
    return last_routed_;
  }

  /// Executes one repair; returns false (and does nothing) when the target
  /// is already working.  `cost` receives the element's repair cost.
  bool apply_repair(const heuristics::ScheduleStep& step, double* cost) {
    bool revive = false;
    if (step.is_node) {
      if (!g_.node_broken(step.node)) return false;
      g_.set_node_broken(step.node, false);
      *cost = g_.node_repair_cost(step.node);
      for (graph::EdgeId e : g_.incident_edges(step.node)) {
        revive |= edge_died_[static_cast<std::size_t>(e)] != 0;
      }
      cache_.invalidate_node(step.node);
    } else {
      if (!g_.edge_broken(step.edge)) return false;
      g_.set_edge_broken(step.edge, false);
      *cost = g_.edge_repair_cost(step.edge);
      revive = edge_died_[static_cast<std::size_t>(step.edge)] != 0;
      cache_.invalidate_edge(step.edge);
    }
    // Non-monotone revival: the session's column pool marks paths through
    // a dead edge as dead forever (correct while usability only grows, as
    // in ISP).  A repair that revives an edge killed by the dynamics would
    // leave stale dead verdicts — and the pricing duplicate guard would
    // treat a re-derived copy of such a path as converged — so the engine
    // pays one full reset instead.  Never fires under static dynamics.
    if (revive) {
      cache_.bump_epoch();
      std::fill(edge_died_.begin(), edge_died_.end(), 0);
    }
    measure_stale_ = true;
    return true;
  }

  /// Runs the dynamics and publishes every broken element into the caches
  /// (the dynamics mutate the graph directly; the engine diffs the flags).
  disruption::DisruptionReport advance_dynamics(Dynamics& dynamics,
                                                std::size_t stage,
                                                util::Rng& rng) {
    std::vector<char> node_was(g_.num_nodes());
    std::vector<char> edge_was(g_.num_edges());
    for (std::size_t n = 0; n < g_.num_nodes(); ++n) {
      node_was[n] = g_.node_broken(static_cast<graph::NodeId>(n)) ? 1 : 0;
    }
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      edge_was[e] = g_.edge_broken(static_cast<graph::EdgeId>(e)) ? 1 : 0;
    }
    const disruption::DisruptionReport report =
        dynamics.advance(g_, live_.demands, stage, rng);
    for (std::size_t n = 0; n < g_.num_nodes(); ++n) {
      const auto id = static_cast<graph::NodeId>(n);
      if ((g_.node_broken(id) ? 1 : 0) == node_was[n]) continue;
      for (graph::EdgeId e : g_.incident_edges(id)) {
        edge_died_[static_cast<std::size_t>(e)] = 1;
      }
      cache_.invalidate_node(id);
      measure_stale_ = true;
    }
    for (std::size_t e = 0; e < g_.num_edges(); ++e) {
      const auto id = static_cast<graph::EdgeId>(e);
      if ((g_.edge_broken(id) ? 1 : 0) == edge_was[e]) continue;
      edge_died_[e] = 1;
      cache_.invalidate_edge(id);
      measure_stale_ = true;
    }
    return report;
  }

 private:
  core::RecoveryProblem& live_;
  graph::Graph& g_;
  graph::ViewCache cache_;
  graph::ViewCache::SlotId slot_ = 0;
  /// Registered cache listener.  Declared after cache_ (both die with the
  /// Runtime, cache last).
  mcf::PathLpSession session_;
  std::vector<mcf::PathLpSession::DemandSpec> specs_;
  /// Edges whose operational status a dynamics event killed since the last
  /// session reset (see apply_repair).
  std::vector<char> edge_died_;
  double last_routed_ = 0.0;
  bool measure_stale_ = true;
};

}  // namespace

Timeline::Timeline(const core::RecoveryProblem& problem, Policy& policy,
                   Dynamics& dynamics, TimelineOptions options)
    : problem_(problem),
      policy_(policy),
      dynamics_(dynamics),
      opt_(options) {}

TimelineResult Timeline::run(util::Rng& rng) {
  util::Timer timer;
  core::RecoveryProblem live = problem_;  // live damage state for this run

  TimelineResult result;
  result.policy = policy_.name();
  result.dynamics = dynamics_.name();
  result.total_demand = live.total_demand();

  Runtime runtime(live, opt_.pool);
  result.initial_routed = runtime.measure();

  const std::size_t budget = opt_.stage_budget == 0
                                 ? std::numeric_limits<std::size_t>::max()
                                 : opt_.stage_budget;
  for (std::size_t stage = 0; stage < opt_.max_stages; ++stage) {
    StageRecord rec;
    rec.stage = stage;
    for (heuristics::ScheduleStep& step :
         policy_.plan_stage(live, stage, budget, rng)) {
      if (rec.repairs.size() >= budget) break;
      double cost = 0.0;
      if (!runtime.apply_repair(step, &cost)) continue;
      rec.repair_cost += cost;
      step.restored_after = runtime.measure();
      rec.repairs.push_back(std::move(step));
    }
    // Fixed point: the policy is idle and no future shock can change
    // anything (reactive dynamics are always exhausted — with no repairs
    // this stage they have nothing new to react to).
    if (rec.repairs.empty() && dynamics_.exhausted()) break;
    rec.shock = runtime.advance_dynamics(dynamics_, stage, rng);
    rec.routed_end = runtime.measure();
    result.total_repairs += rec.repairs.size();
    result.total_repair_cost += rec.repair_cost;
    result.shock_breaks += rec.shock.total();
    result.stages.push_back(std::move(rec));
  }
  result.final_routed = runtime.measure();
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace netrec::recovery
