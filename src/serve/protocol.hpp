// netrecd wire protocol: the damage-state request and its canonical
// fingerprint.
//
// A plan request is the paper's what-if question as a service call: the
// client names the broken elements of the preloaded topology (the request
// is the COMPLETE damage state — anything not listed is operational) plus
// solve options, and gets back the repair plan, restoration series and AUC.
// Requests are untrusted input: parsing is strict (unknown keys, non-integer
// ids, out-of-range references and malformed options are all hard errors
// with client-facing messages, never silent no-ops).
//
// The fingerprint is the plan cache's key contract: two requests that
// describe the same damage state and the same solve options — regardless of
// list order, duplicates, or which optional fields were spelled out — must
// map to the same canonical key, so a cache hit can return the stored plan
// byte-identical to what a fresh solve would produce.  docs/serve_protocol.md
// documents the exact definition.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "util/json.hpp"

namespace netrec::serve {

struct PlanRequest {
  /// Broken elements by id, canonicalised at parse time: sorted ascending,
  /// duplicates removed.
  std::vector<graph::NodeId> broken_nodes;
  std::vector<graph::EdgeId> broken_edges;

  /// kIsp: one-shot ISP plan + marginal-gain repair schedule (the paper's
  /// setting).  kTimeline: staged execution under static dynamics with a
  /// per-stage crew budget.
  enum class Mode { kIsp, kTimeline };
  Mode mode = Mode::kIsp;

  /// Timeline-mode repair policy (ignored in kIsp mode).
  enum class Policy { kReplay, kReplan };
  Policy policy = Policy::kReplay;

  /// Timeline-mode repairs per stage; 0 = unlimited.  Ignored in kIsp mode.
  std::size_t stage_budget = 1;
  /// Timeline-mode stage cap and AUC padding horizon.  Ignored in kIsp mode.
  std::size_t max_stages = 32;
  /// Timeline-mode RNG seed (the solve is deterministic given the request,
  /// so the seed is part of the fingerprint).  Ignored in kIsp mode.
  std::uint64_t seed = 1;
};

/// Parses and validates a plan-request document against the preloaded
/// problem's bounds.  Throws std::invalid_argument with a message safe to
/// return to the client.
PlanRequest parse_plan_request(const util::Json& body,
                               const core::RecoveryProblem& baseline);

/// Canonical cache key: a collision-free string over the canonicalised
/// damage state and every option the solve depends on (timeline-only fields
/// are omitted in kIsp mode so they cannot split cache entries).
std::string canonical_key(const PlanRequest& request);

/// FNV-1a 64-bit hex digest of a canonical key; the compact fingerprint
/// reported to clients and in metrics.  The server hashes the key it
/// already built for the cache lookup.
std::string fingerprint(std::string_view canonical_key);

/// fingerprint(canonical_key(request)).
std::string fingerprint(const PlanRequest& request);

const char* mode_name(PlanRequest::Mode mode);
const char* policy_name(PlanRequest::Policy policy);

}  // namespace netrec::serve
