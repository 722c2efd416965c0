// Repair scheduling: ordering a MinR repair set for progressive recovery.
//
// MinR (and ISP) decide *what* to repair; field crews need an *order*.  The
// related work the paper contrasts against (Wang, Qiao & Yu, "On progressive
// network recovery after a major disruption", INFOCOM 2011 — ref. [32])
// optimises restored throughput over time directly; this module brings that
// view to any MinR solution: greedily execute next the repair with the
// largest marginal restored demand, so critical service comes back as early
// as the chosen repair set allows.
//
// ScheduleStep is netrec's one repair-step record from planner to crew:
// schedule_repairs emits it, the recovery::Timeline policies return it
// (node_step / edge_step build unscored ones), the Timeline stores each
// executed step with its measured routed demand, and netrecd's isp and
// timeline payloads list it.  The schedule scores its steps with the
// greedy router only; the exact per-prefix measurement is the Timeline's
// (the test referee heuristics::exact_restored_series pins the two).
#pragma once

#include <string>
#include <vector>

#include "core/problem.hpp"

namespace netrec::heuristics {

/// One repair in execution order: the record shared by the scheduler, the
/// recovery::Timeline policies and the crew-facing payloads.
struct ScheduleStep {
  bool is_node = false;
  graph::NodeId node = graph::kInvalidNode;
  graph::EdgeId edge = graph::kInvalidEdge;
  /// Demand volume routable after this step completes.
  double restored_after = 0.0;
  /// Human-readable description ("site X" / "link X - Y").
  std::string label;
};

struct RecoverySchedule {
  std::vector<ScheduleStep> steps;
  double total_demand = 0.0;

  /// Area-under-curve of restored demand over steps, normalised to [0, 1];
  /// 1 means everything restored instantly (the Wang et al. objective,
  /// with unit-time repairs).  Computed by util::restoration_auc.
  double restoration_auc() const;

  /// Steps needed to restore `fraction` of the demand (steps.size()+1 when
  /// never reached).  Computed by util::steps_to_fraction.
  std::size_t steps_to_restore(double fraction) const;

  /// The restored-demand series, one entry per step (the input the
  /// util::stats time-series helpers consume).
  std::vector<double> restored_series() const;
};

/// An unscored step repairing node `n` / edge `e` of `g`, labelled
/// "site X" / "link X - Y" (the node name, or its id when unnamed).
ScheduleStep node_step(const graph::Graph& g, graph::NodeId n);
ScheduleStep edge_step(const graph::Graph& g, graph::EdgeId e);

/// Orders `solution`'s repair set by greedy marginal restored demand.
/// The schedule contains every repair exactly once.
///
/// Every step but the last is scored with the greedy router (cheap, still
/// monotone in practice).  Precondition: `solution` was scored by
/// core::score_solution on this same `problem` (every solver's result is).
/// The last step's restored_after is its `routing.total_routed`, the exact
/// LP referee on the repaired graph, so it is not solved a second time.
/// Throws std::invalid_argument when
/// `routing.routed.size() != problem.demands.size()`.
RecoverySchedule schedule_repairs(const core::RecoveryProblem& problem,
                                  const core::RecoverySolution& solution);

}  // namespace netrec::heuristics
