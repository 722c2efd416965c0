#include "verify.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

namespace perfbench {

using namespace netrec;

namespace {

constexpr double kTolerance = 1e-6;

bool close_to(double a, double b) {
  return std::abs(a - b) <= kTolerance * std::max(1.0, std::abs(b));
}

}  // namespace

bool extract_result_bytes(std::string_view response, std::string_view& out) {
  constexpr std::string_view kPrefix = "{\"result\":";
  constexpr std::string_view kMeta = ",\"meta\":{\"fingerprint\":";
  if (response.substr(0, kPrefix.size()) != kPrefix) return false;
  const std::size_t meta = response.rfind(kMeta);
  if (meta == std::string_view::npos || meta < kPrefix.size()) return false;
  out = response.substr(kPrefix.size(), meta - kPrefix.size());
  return true;
}

bool meta_flag(std::string_view response, std::string_view key) {
  const std::size_t meta = response.rfind(",\"meta\":{");
  if (meta == std::string_view::npos) return false;
  std::string pattern = "\"";
  pattern.append(key).append("\":true");
  return response.find(pattern, meta) != std::string_view::npos;
}

core::RecoverySolution solution_from_payload(const util::Json& payload) {
  core::RecoverySolution solution;
  solution.algorithm = payload.at("algorithm").as_string();
  const util::Json& repairs = payload.at("repairs");
  for (std::size_t i = 0; i < repairs.size(); ++i) {
    const util::Json& entry = repairs.at(i);
    const auto id = static_cast<std::int32_t>(entry.at("id").as_number());
    const std::string& kind = entry.at("kind").as_string();
    if (kind == "node") {
      solution.repaired_nodes.push_back(id);
    } else if (kind == "edge") {
      solution.repaired_edges.push_back(id);
    } else {
      throw std::invalid_argument("unknown repair kind '" + kind + "'");
    }
  }
  return solution;
}

PlanCheck verify_plan(const core::RecoveryProblem& damaged,
                      const std::string& result_bytes) {
  PlanCheck check;
  const auto fail = [&](std::string why) {
    check.ok = false;
    check.error = std::move(why);
    return check;
  };
  try {
    const util::Json payload = util::Json::parse(result_bytes);
    if (payload.at("mode").as_string() != "isp") return fail("mode is not isp");
    if (!payload.at("feasible").as_bool()) return fail("payload infeasible");
    if (!close_to(payload.at("satisfied_fraction").as_number(), 1.0)) {
      return fail("payload satisfied_fraction below 1");
    }
    core::RecoverySolution solution = solution_from_payload(payload);
    check.repairs = solution.total_repairs();
    if (static_cast<double>(check.repairs) !=
        payload.at("total_repairs").as_number()) {
      return fail("repair list length differs from total_repairs");
    }
    core::score_solution(damaged, solution);
    check.repair_cost = solution.repair_cost;
    check.satisfied_fraction = solution.satisfied_fraction;
    check.flow_routed = solution.routing.total_routed;
    if (!close_to(solution.repair_cost,
                  payload.at("repair_cost").as_number())) {
      return fail("re-scored repair cost differs from the payload");
    }
    if (!close_to(solution.satisfied_fraction, 1.0)) {
      return fail("re-scored plan does not route all demand");
    }
    const std::string invalid = core::validate_solution(damaged, solution);
    if (!invalid.empty()) return fail("validate_solution: " + invalid);
    check.restoration_auc =
        payload.at("restoration").at("auc").as_number();
    if (!(check.restoration_auc >= 0.0 && check.restoration_auc <= 1.0)) {
      return fail("restoration auc outside [0, 1]");
    }
  } catch (const std::exception& e) {
    return fail(std::string("malformed payload: ") + e.what());
  }
  check.ok = true;
  return check;
}

}  // namespace perfbench
