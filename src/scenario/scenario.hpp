// Seeded scenario engine shared by the bench drivers (paper Section VII).
//
// Demand graphs follow the paper's construction: pairs sampled among nodes
// whose hop distance is at least half the supply graph's diameter, each with
// a fixed flow requirement.
//
// run_matrix is the one runs x cells matrix: it draws N seeded problem
// instances from a scenario factory and applies every cell to each.  A cell
// is one algorithm (run_experiment, scored with the Fig. 4-9 metrics: edge/
// node/total repairs, satisfied %, wall seconds) or one staged-recovery
// policy@dynamics pair (run_timelines in timeline_runner.hpp).
//
// Parallelism and determinism: the matrix executes on a util::ThreadPool,
// but every random stream is derived from per-run seeds fixed *before* any
// task is submitted (util::Rng seed-splitting), and metrics are merged
// serially in (run, cell) order after the matrix completes.  A given master
// seed therefore produces bit-identical AggregateResults at any thread
// count.  The only non-deterministic metric is wall_seconds, which measures
// real solver time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace netrec::scenario {

/// Demand pairs at hop distance >= ceil(diameter * min_distance_factor),
/// sampled without endpoint reuse while possible.  Throws when the graph is
/// disconnected; returns fewer pairs when not enough far-apart pairs exist.
///
/// The result is defined by a list: every admissible pair (i, j), i < j, in
/// lexicographic order, std::shuffle'd with `rng`, then scanned twice, first
/// for pairs with fresh endpoints, then for any pair not yet taken.  Two passes
/// of graph/traversal's bit-parallel multi-source BFS do the graph work:
/// hop_diameter (which also checks connectivity), then near_matrix stopped at
/// min_hops - 1 levels, whose words address the P admissible pairs by rank
/// (per-row prefix counts taken with popcounts, then a select inside the row).
/// std::shuffle runs over a virtual sequence of the P ranks that stores only
/// its first K slots, K = max(1024, 64 * pairs) capped at P; a later slot reads
/// as its own rank and drops writes.  Because libstdc++'s std::shuffle is a
/// forward Fisher-Yates, the K stored slots end equal to the head of the
/// shuffled list, after exactly the same draws.  Memory: about V^2 / 8 bytes
/// for the matrix, plus O(V + K).  Only when the scan needs a slot past K, or
/// asks for more than V / 2 pairs (so that the first pass reads every slot), is
/// the list itself built and shuffled with the same draws, at O(P) memory.
///
/// The demands and the state `rng` is left in are byte-identical to the
/// list construction: pinned by the `placement` records of
/// tests/golden/graph_kernels.txt, and checked against the list referee of
/// tests/referees.hpp, which also guards the dependence on libstdc++'s
/// shuffle.
std::vector<mcf::Demand> far_apart_demands(const graph::Graph& g,
                                           std::size_t pairs, double amount,
                                           util::Rng& rng,
                                           double min_distance_factor = 0.5);

/// Per-task context handed to every (run, cell) execution.  run_seed is
/// stable for the run regardless of thread count or execution order, so
/// cells needing run-correlated randomness (e.g. two variants that must see
/// the same samples) can derive identical streams from it; rng is a private
/// stream unique to this (run, cell) pair.
struct RunContext {
  std::size_t run_index = 0;
  std::uint64_t run_seed = 0;
  util::Rng rng;
};

/// One algorithm under test: takes the problem (shared across algorithms of
/// the same run) and the task context, returns a scored solution.
using Algorithm = std::function<core::RecoverySolution(
    const core::RecoveryProblem&, RunContext&)>;

/// Builds the problem for one run (seeded independently per run).
using ProblemFactory = std::function<core::RecoveryProblem(util::Rng&)>;

/// A cell's scoring, deferred to the serial merge: called once with the
/// cell's MetricSet, in (run, cell) order.
using CellRecord = std::function<void(util::MetricSet&)>;

/// One matrix cell: does its work on the run's problem (on any worker) and
/// returns the record the merge replays.
using Cell = std::function<CellRecord(const core::RecoveryProblem&,
                                      RunContext&)>;

struct RunnerOptions {
  std::size_t runs = 20;    ///< the paper averages 20 runs
  std::uint64_t seed = 42;
  /// Redraw instances that are infeasible even under full repair (the
  /// paper's scenarios are feasible by construction; at high demand
  /// intensities random far-apart draws occasionally collide on a narrow
  /// regional cut and are re-rolled, a bounded number of times per run).
  bool require_feasible = false;
  /// Worker threads for the runs x cells matrix; 0 resolves via
  /// NETREC_THREADS / hardware_concurrency (util::ThreadPool).  Ignored
  /// when `pool` is set.
  std::size_t threads = 0;
  /// Borrowed pool to run on (not owned); lets a sweep share one pool
  /// across its points instead of re-spawning workers per point.
  util::ThreadPool* pool = nullptr;
};

struct AggregateResult {
  /// Cell names in registration order.
  std::vector<std::string> cell_names;
  /// cell name -> metric -> stats; a cell has an entry once a run completes.
  std::map<std::string, util::MetricSet> per_cell;
  /// Instance-level metrics per completed run: broken_nodes, broken_edges,
  /// broken_total, total_demand.
  util::MetricSet instance;
  std::size_t completed_runs = 0;
};

/// Applies every cell to `runs` seeded instances and aggregates the records.
/// Each run's problem is built from its own seed (redrawn when
/// `require_feasible` and infeasible even under full repair; a run with no
/// feasible draw is skipped); cell c of a run gets
/// ctx.rng = Rng(run_seed + salt * (c + 1)).  Builds are parallel over runs,
/// cells over the runs x cells matrix; results are deterministic per master
/// seed.
AggregateResult run_matrix(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, Cell>>& cells,
    const RunnerOptions& options = {});

/// run_matrix with one cell per algorithm, scored by record_solution.
AggregateResult run_experiment(
    const ProblemFactory& factory,
    const std::vector<std::pair<std::string, Algorithm>>& algorithms,
    const RunnerOptions& options = {});

/// Records one solution's metrics into a MetricSet: run_experiment's
/// scoring of an algorithm cell.
void record_solution(const core::RecoverySolution& solution,
                     util::MetricSet& metrics);

}  // namespace netrec::scenario
