// Output checks for served plans.
//
// A plan is accepted only if netrec's own referee agrees with it: the
// repair list is rebuilt into a core::RecoverySolution, re-scored with
// core::score_solution and validated with core::validate_solution on the
// damaged instance, and the payload's claims (feasible, full satisfaction,
// repair count and cost) must match what the referee recomputed.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/problem.hpp"
#include "util/json.hpp"

namespace perfbench {

/// The verbatim "result" bytes of a /v1/plan response body (the server
/// splices the cached or fresh payload between a fixed prefix and the meta
/// object, so string surgery recovers the exact bytes).
bool extract_result_bytes(std::string_view response, std::string_view& out);

/// Reads a boolean flag ("cached", "degraded") from the response's meta.
bool meta_flag(std::string_view response, std::string_view key);

struct PlanCheck {
  bool ok = false;
  std::string error;  ///< first failed check when !ok
  double repair_cost = 0.0;
  double restoration_auc = 0.0;
  double satisfied_fraction = 0.0;
  double flow_routed = 0.0;
  std::size_t repairs = 0;
};

/// The repair list of an isp-mode payload as a solution (unscored).
netrec::core::RecoverySolution solution_from_payload(
    const netrec::util::Json& payload);

/// Verifies one plan payload; `damaged` must carry the request's damage.
PlanCheck verify_plan(const netrec::core::RecoveryProblem& damaged,
                      const std::string& result_bytes);

}  // namespace perfbench
