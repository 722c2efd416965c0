// Staged-recovery sweeps: (policy, dynamics) cells of the run matrix.
//
// run_timelines registers one scenario::run_matrix cell per policy@dynamics
// pair (policies outer, dynamics inner).  Every run draws one seeded problem
// instance, and each cell replays the staged recovery of that instance with
// fresh policy/dynamics objects from caller-supplied factories (timelines
// mutate both) and the cell's private ctx.rng.  Seeding, builds, redraws,
// pool dispatch and the serial merge are run_matrix's, so the aggregate is
// bit-identical at any thread count (wall_seconds excepted).
//
// Per-cell metrics: restoration_auc (padded to timeline.max_stages so series
// of different lengths compare on one time axis), stages, total_repairs,
// repair_cost, final_pct, stages_to_90, shock_breaks, wall_seconds.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "recovery/timeline.hpp"
#include "scenario/scenario.hpp"

namespace netrec::scenario {

/// Fresh policy / dynamics state per (run, cell) — timelines mutate both.
using PolicyFactory = std::function<std::unique_ptr<recovery::Policy>()>;
using DynamicsFactory = std::function<std::unique_ptr<recovery::Dynamics>()>;

/// Composes the canonical cell key.
std::string timeline_cell_name(const std::string& policy,
                               const std::string& dynamics);

/// Runs every (policy, dynamics) combination under the engine configuration
/// `timeline` over `options.runs` seeded instances and aggregates the
/// restoration metrics; deterministic per master seed at any thread count.
/// Throws std::invalid_argument when either list is empty.
AggregateResult run_timelines(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, PolicyFactory>>& policies,
    const std::vector<std::pair<std::string, DynamicsFactory>>& dynamics,
    const recovery::TimelineOptions& timeline,
    const RunnerOptions& options = {});

}  // namespace netrec::scenario
