// recovery::Timeline — staged recovery dynamics engine.
//
// The paper evaluates ISP as a one-shot planner: plan once, score once.
// Real restoration is a process — crews repair in stages while the disaster
// keeps evolving (aftershocks; overload cascades coupling back into the
// repair, cf. Danziger & Barabási, "Recovery Coupling in Multilayer
// Networks") — and the *dynamics* change the outcome (Lin et al.,
// "Non-Markovian recovery makes complex networks more resilient").  The
// Timeline makes that scenario family first-class: discrete stages, each
//
//   1. a pluggable Policy picks up to `stage_budget` repairs on the current
//      damage state (replay the one-shot ISP plan, re-plan from scratch,
//      betweenness-greedy, list-order / random baselines — see policies.hpp);
//   2. the engine executes them, measuring routed demand after every repair
//      (the exact LP referee on static capacities) into the executed
//      heuristics::ScheduleStep's restored_after;
//   3. a pluggable Dynamics process mutates the graph (aftershock sequence,
//      capacity-overload cascade, or the static no-op that reproduces the
//      one-shot behaviour — see dynamics.hpp);
//
// and the result is a restoration time series: routed demand per stage,
// normalised AUC and time-to-X% via the util::stats helpers.
//
// Live damage state: the engine runs on a private copy of the problem whose
// graph `broken` flags are the single source of truth — a repair clears the
// flag, a dynamics event sets it (possibly on an element that was already
// repaired once; re-repairing it costs again).  An element is operational
// iff not broken.
//
// Measurement reuse: all routed-demand queries go through one ViewCache
// slot ("operational") and one persistent kMaxRouted PathLpSession
// registered on that cache.  Repairs and dynamics breaks
// publish invalidate_node/invalidate_edge; breaks stay warm — the session
// deactivates exactly the columns whose paths cross a dead edge, which is
// the first workload exercising warm reuse across *disruption* events, not
// just repairs.  The one non-monotone case is handled explicitly: the
// session's column pool assumes dead paths never resurrect, so when a
// repair revives an edge that died during the session's lifetime the engine
// bumps the cache epoch (full session reset + view rebuild) instead of
// risking a stale dead-column verdict.  Under static dynamics no edge ever
// dies mid-run, the reset never fires, and the engine is pinned
// bit-identical to the one-shot IspSolver + schedule_repairs pipeline, its
// per-step values to a fresh LP per repaired prefix, by
// tests/test_recovery_timeline.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "disruption/disruption.hpp"
#include "heuristics/schedule.hpp"
#include "mcf/types.hpp"
#include "util/rng.hpp"

namespace netrec::util {
class ThreadPool;
}  // namespace netrec::util

namespace netrec::recovery {

/// Per-stage repair selection.  Implementations are stateful (the replay
/// policy owns its precomputed queue) and single-run: construct one policy
/// per Timeline::run.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;

  /// Picks up to `budget` repairs among the currently broken elements of
  /// `problem` (the engine's live copy: broken flags = current damage).
  /// Called once per stage; returning an empty vector signals the policy
  /// has nothing left to do.  Must not mutate the problem.  `rng` is the
  /// run's deterministic stream (randomised policies draw from it).  The
  /// engine measures each executed step itself, overwriting the step's
  /// restored_after.
  virtual std::vector<heuristics::ScheduleStep> plan_stage(
      const core::RecoveryProblem& problem, std::size_t stage,
      std::size_t budget, util::Rng& rng) = 0;
};

/// Per-stage disaster evolution.  Runs after the stage's repairs; may break
/// elements (set `broken`) but never repair them.  The engine diffs the
/// broken flags around the call and publishes the changes into its caches,
/// so implementations mutate the graph directly.
class Dynamics {
 public:
  virtual ~Dynamics() = default;
  virtual std::string name() const = 0;

  virtual disruption::DisruptionReport advance(
      graph::Graph& g, const std::vector<mcf::Demand>& demands,
      std::size_t stage, util::Rng& rng) = 0;

  /// True when no future advance() can break anything (the aftershock
  /// sequence ended; reactive processes like the cascade are always
  /// "exhausted" — they only respond to changes).  The engine stops at the
  /// first stage where the policy has nothing to repair and the dynamics
  /// are exhausted.
  virtual bool exhausted() const = 0;
};

struct TimelineOptions {
  /// Hard stage cap (guards policies that never finish).
  std::size_t max_stages = 64;
  /// Repairs per stage (crew budget); 0 means unlimited.
  std::size_t stage_budget = 1;
  /// Intra-run parallelism for the measurement LP's pricing sweeps: a
  /// caller-owned pool that must outlive the run; null (the default) means
  /// serial.  Fixed install order keeps every restoration curve
  /// bit-identical to the serial run at any thread count.
  util::ThreadPool* pool = nullptr;
};

/// What one stage did to the network.
struct StageRecord {
  std::size_t stage = 0;
  /// Repairs actually executed (steps targeting working elements are
  /// dropped), in execution order, each with the routed demand measured
  /// right after it in restored_after — the intra-stage restoration curve.
  std::vector<heuristics::ScheduleStep> repairs;
  /// What the dynamics process broke after the repairs.
  disruption::DisruptionReport shock;
  /// Routed demand at the end of the stage (after the dynamics).
  double routed_end = 0.0;
  double repair_cost = 0.0;
};

struct TimelineResult {
  std::string policy;
  std::string dynamics;
  double total_demand = 0.0;
  /// Routed demand before any stage ran.
  double initial_routed = 0.0;
  double final_routed = 0.0;
  std::size_t total_repairs = 0;
  double total_repair_cost = 0.0;
  /// Elements broken by the dynamics across all stages.
  std::size_t shock_breaks = 0;
  double wall_seconds = 0.0;
  std::vector<StageRecord> stages;

  /// End-of-stage routed demand, one entry per stage; when `horizon` is
  /// larger the series is padded with its final value (recovered service
  /// stays up), so AUCs of runs with different stage counts compare on one
  /// time axis.
  std::vector<double> stage_series(std::size_t horizon = 0) const;
  /// Per-repair restored_after flattened across stages (the granularity of
  /// heuristics::RecoverySchedule).
  std::vector<double> step_series() const;

  /// util::restoration_auc over stage_series(max(horizon, 1)): a zero-stage
  /// run scores its final routed fraction, not the degenerate 0.
  double restoration_auc(std::size_t horizon = 0) const;
  /// util::steps_to_fraction over the unpadded stage series.
  std::size_t stages_to_restore(double fraction) const;
};

class Timeline {
 public:
  /// Borrows everything; `problem` is copied per run (the original is never
  /// mutated).  Policies are stateful — construct a fresh policy per run.
  Timeline(const core::RecoveryProblem& problem, Policy& policy,
           Dynamics& dynamics, TimelineOptions options = {});

  /// Runs the staged recovery to its fixed point (policy idle + dynamics
  /// exhausted) or max_stages.  `rng` drives the dynamics and randomised
  /// policies; a run is deterministic given (problem, policy, dynamics,
  /// options, rng state).
  TimelineResult run(util::Rng& rng);

 private:
  const core::RecoveryProblem& problem_;
  Policy& policy_;
  Dynamics& dynamics_;
  TimelineOptions opt_;
};

}  // namespace netrec::recovery
