// PlanningEngine — one warm, re-entrant-by-isolation recovery solver.
//
// Each server worker owns one engine.  The engine keeps a private copy of
// the preloaded problem (its graph's broken flags are scratch state for the
// current request) plus a persistent intra-solve ThreadPool, so serving a
// request never touches shared mutable state: concurrency comes from many
// engines side by side, determinism from each engine being single-request
// at a time.  The underlying solver layers (ViewCache snapshots,
// PathLpSession column pools) are constructed per solve inside
// IspSolver/Timeline and reuse state *within* a request.
//
// With solve_threads >= 2 the engine lends its pool to every solve, which
// fans out centrality path enumeration, LP seed enumeration and pricing,
// the split phase's full-graph max flows and the watchdog's per-demand max
// flows.  Each kernel fills per-task slots and every merge runs serially in
// a fixed order, so payloads are byte-identical at any solve_threads.
//
// The baseline topology is treated as fully operational: the request is the
// complete damage state (engine construction clears any broken flags the
// loaded topology carried), which makes the request fingerprint and the
// solved state bijective — the precondition for cache hits returning
// bit-identical plans.
//
// solve() is deterministic: the payload contains no wall-clock or
// machine-dependent fields, so payload(request) is a pure function and two
// engines (or one engine twice) produce byte-identical dumps for one
// request.  That property is what the plan cache, the load-generator
// identity check and the concurrency test suite all assert.
//
// Robustness (PR 9): a nonzero deadline_ms arms a cooperative per-request
// deadline inside the ISP iteration loop.  On expiry (or the "isp.deadline"
// fault site) the engine degrades instead of hanging: it returns the SRT
// heuristic fallback plan with PlanOutcome::degraded set, which the server
// tags "degraded": true in meta and never caches.  The degraded payload is
// itself deterministic — bit-identical to heuristic_plan(request) — so the
// chaos tests can identity-check degraded responses too.
#pragma once

#include <cstddef>
#include <optional>

#include "core/isp.hpp"
#include "core/problem.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace netrec::serve {

struct EngineOptions {
  /// Solver configuration shared by both modes; `pool`/`solve_threads` are
  /// overwritten by the engine's own warm pool.
  core::IspOptions isp;
  /// Intra-solve parallelism per request (PR 7 contract: bit-identical to
  /// serial at any count).  1 = serial, 0 = auto.
  std::size_t solve_threads = 1;
  /// Per-request solve deadline in milliseconds; 0 = unlimited.  Expiry
  /// degrades to the heuristic fallback plan instead of failing.
  double deadline_ms = 0.0;
};

/// What one solve produced: the payload bytes-to-be, and whether they are
/// the degraded (deadline-hit) heuristic fallback rather than the full
/// solve.  Degraded payloads must never enter the plan cache.
struct PlanOutcome {
  util::Json payload;
  bool degraded = false;
};

class PlanningEngine {
 public:
  explicit PlanningEngine(const core::RecoveryProblem& baseline,
                          EngineOptions options = {});

  /// Solves the request against the baseline topology and returns the
  /// deterministic response payload (the "result" object of the wire
  /// response).  Damage flags are applied before and restored after the
  /// solve, also on exception.  When the per-request deadline expires the
  /// outcome carries the heuristic fallback plan with degraded=true.
  PlanOutcome solve(const PlanRequest& request);

  /// The deadline-degradation fallback: SRT repair plan + marginal-gain
  /// schedule, in the same payload shape as a full isp solve.  Public so
  /// the chaos tests can compute the expected degraded payload
  /// directly (the differential: degraded response == this, byte for byte).
  util::Json heuristic_plan(const PlanRequest& request);

  const core::RecoveryProblem& problem() const { return problem_; }

 private:
  util::Json solve_isp(const PlanRequest& request);
  util::Json solve_timeline(const PlanRequest& request);
  /// heuristic_plan minus the damage scoping (callers hold ScopedDamage).
  util::Json heuristic_plan_damaged();

  core::RecoveryProblem problem_;
  EngineOptions opt_;
  std::optional<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace netrec::serve
