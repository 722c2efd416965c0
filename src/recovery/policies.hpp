// Repair policies for recovery::Timeline.
//
// A policy answers "which repairs this stage?" on the current damage state:
//
//   * ReplayPolicy      — plan once with the one-shot ISP solver on the
//                         damage it sees first, order the repair set with
//                         heuristics::schedule_repairs (or plain list
//                         order), then execute the queue across stages
//                         regardless of how the disaster evolves.  The
//                         static-plan baseline — and, under static
//                         dynamics, bit-identical to the one-shot pipeline.
//   * ReplanPolicy      — fresh ISP solve (with the given core::IspOptions)
//                         + schedule per stage on the *current* graph:
//                         repairs adapt to aftershocks and cascades (and
//                         naturally stop once the demand routes).  The
//                         adaptive upper bound.
//   * BetweennessGreedyPolicy — repair broken elements in decreasing
//                         classic Brandes betweenness of the full topology
//                         (demand-oblivious structural heuristic).
//   * ListOrderPolicy   — broken elements in id order (nodes first).
//   * RandomPolicy      — a uniformly random broken subset per stage, drawn
//                         from the run's deterministic stream.
//
// All policies return heuristics::ScheduleStep records (built by
// heuristics::node_step / edge_step, or taken from schedule_repairs) and are
// single-run (ReplayPolicy owns its queue position).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/isp.hpp"
#include "heuristics/schedule.hpp"
#include "recovery/timeline.hpp"

namespace netrec::recovery {

struct ReplayOptions {
  core::IspOptions isp;
  /// true: execute the plan in schedule_repairs marginal-gain order;
  /// false: plain list order (nodes then edges, decision order) — the
  /// progressive_recovery example's baseline.
  bool schedule_order = true;
};

class ReplayPolicy : public Policy {
 public:
  explicit ReplayPolicy(ReplayOptions options = {});
  std::string name() const override;
  std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) override;

  /// The one-shot ISP plan; valid after the first plan_stage call.
  const core::RecoverySolution& plan() const { return plan_; }

 private:
  ReplayOptions opt_;
  bool planned_ = false;
  core::RecoverySolution plan_;
  std::vector<heuristics::ScheduleStep> queue_;
  std::size_t next_ = 0;
};

class ReplanPolicy : public Policy {
 public:
  explicit ReplanPolicy(core::IspOptions isp = {});
  std::string name() const override { return "replan"; }
  std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) override;

 private:
  core::IspOptions isp_;
};

class BetweennessGreedyPolicy : public Policy {
 public:
  std::string name() const override { return "betweenness"; }
  std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) override;

 private:
  /// Brandes scores over the full topology (broken elements included, unit
  /// lengths) — computed once; the topology never changes mid-run.
  std::vector<double> scores_;
  bool scored_ = false;
};

class ListOrderPolicy : public Policy {
 public:
  std::string name() const override { return "list"; }
  std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) override;
};

class RandomPolicy : public Policy {
 public:
  std::string name() const override { return "random"; }
  std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) override;
};

}  // namespace netrec::recovery
