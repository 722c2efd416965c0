// Repair scheduling: ordering a MinR repair set for progressive recovery.
//
// MinR (and ISP) decide *what* to repair; field crews need an *order*.  The
// related work the paper contrasts against (Wang, Qiao & Yu, "On progressive
// network recovery after a major disruption", INFOCOM 2011 — ref. [32])
// optimises restored throughput over time directly; this module brings that
// view to any MinR solution: greedily execute next the repair with the
// largest marginal restored demand, so critical service comes back as early
// as the chosen repair set allows.
#pragma once

#include <string>
#include <vector>

#include "core/problem.hpp"

namespace netrec::heuristics {

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

/// Human-readable repair labels ("site X" / "link X - Y"), shared by the
/// scheduler and the recovery::Timeline policies.
std::string node_label(const graph::Graph& g, graph::NodeId n);
std::string edge_label(const graph::Graph& g, graph::EdgeId e);

struct ScheduleOptions {
  /// Score candidate prefixes with the exact LP referee; the default uses
  /// the greedy router (cheap, still monotone in practice) and verifies the
  /// final point exactly.
  bool exact_scoring = false;
};

/// Orders `solution`'s repair set by greedy marginal restored demand.
/// The schedule contains every repair exactly once.
///
/// Precondition: `solution` was scored by core::score_solution on this same
/// `problem` (every solver's result is).  The last step's restored_after is
/// its `routing.total_routed`, the exact LP referee on the repaired graph,
/// so it is not solved a second time.  Throws std::invalid_argument when
/// `routing.routed.size() != problem.demands.size()`.
RecoverySchedule schedule_repairs(const core::RecoveryProblem& problem,
                                  const core::RecoverySolution& solution,
                                  const ScheduleOptions& options = {});

}  // namespace netrec::heuristics
