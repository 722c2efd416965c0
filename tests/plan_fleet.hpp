// A fleet of retrying clients driving /v1/plan, with every 200 checked byte
// for byte against precomputed plans.  Shared by the in-process chaos sweep
// (test_serve_chaos.cpp) and the faulted-daemon smoke (test_netrecd.cpp).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace netrec::test {

/// One damage state: the wire body and the two payloads a 200 may carry.
struct PlanScenario {
  std::string body;
  std::string full;      ///< direct PlanningEngine::solve dump
  std::string degraded;  ///< direct PlanningEngine::heuristic_plan dump
};

/// `count` seeded damage states of 3 broken nodes and 2 broken edges, with
/// both expected payloads computed by a serial engine before any fault is
/// armed.
inline std::vector<PlanScenario> plan_scenarios(
    const core::RecoveryProblem& problem, std::size_t count,
    std::uint64_t seed) {
  util::Rng rng(seed);
  const auto ids = [&rng](std::size_t n, std::size_t k) {
    util::Json out = util::Json::array();
    for (std::size_t i : rng.sample_without_replacement(n, k)) {
      out.push_back(i);
    }
    return out;
  };
  serve::PlanningEngine direct(problem);
  std::vector<PlanScenario> scenarios(count);
  for (PlanScenario& scenario : scenarios) {
    util::Json body = util::Json::object();
    body.set("broken_nodes", ids(problem.graph.num_nodes(), 3));
    body.set("broken_edges", ids(problem.graph.num_edges(), 2));
    scenario.body = body.dump();
    const serve::PlanRequest request =
        serve::parse_plan_request(body, problem);
    scenario.full = direct.solve(request).payload.dump();
    scenario.degraded = direct.heuristic_plan(request).dump();
  }
  return scenarios;
}

/// The verbatim "result" bytes of a /v1/plan response ("" if the response
/// does not have the {"result":...,"meta":{"fingerprint":...}} shape).
/// Parsing would re-serialise and hide byte-level differences.
inline std::string result_bytes(const std::string& response) {
  static const std::string kPrefix = "{\"result\":";
  static const std::string kMeta = ",\"meta\":{\"fingerprint\":";
  const std::size_t meta = response.rfind(kMeta);
  if (response.rfind(kPrefix, 0) != 0 || meta == std::string::npos ||
      meta < kPrefix.size()) {
    return "";
  }
  return response.substr(kPrefix.size(), meta - kPrefix.size());
}

struct FleetResult {
  std::size_t requests = 0;
  std::size_t ok = 0;  ///< 200 within the retry budget
  std::size_t mismatches = 0;
  std::string first_failure;

  double availability() const {
    return static_cast<double>(ok) / static_cast<double>(requests);
  }
};

/// `clients` threads, each sending `requests_per_client` plans round-robin
/// over the scenarios (client c starts at scenario c) through a retrying
/// serve::Client.  A degraded 200 must match the heuristic plan, any other
/// 200 the full solve.
inline FleetResult run_fleet(int port,
                             const std::vector<PlanScenario>& scenarios,
                             std::size_t clients,
                             std::size_t requests_per_client) {
  FleetResult fleet;
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ClientOptions copt;
      copt.max_attempts = 6;
      copt.initial_backoff_ms = 5.0;
      copt.max_backoff_ms = 100.0;
      copt.jitter_seed = 0xc4a05u + c;
      serve::Client client("127.0.0.1", port, copt);
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        const PlanScenario& scenario = scenarios[(c + i) % scenarios.size()];
        const serve::ClientResult result =
            client.request("POST", "/v1/plan", scenario.body);
        const std::string& response = result.response.body;
        const bool degraded =
            response.find("\"degraded\":true") != std::string::npos;
        const bool ok = result.response.status == 200;
        const std::string& expected =
            degraded ? scenario.degraded : scenario.full;
        const bool match = result_bytes(response) == expected;
        std::lock_guard<std::mutex> lock(mutex);
        ++fleet.requests;
        fleet.ok += ok ? 1 : 0;
        fleet.mismatches += ok && !match ? 1 : 0;
        if (fleet.first_failure.empty() && !(ok && match)) {
          fleet.first_failure =
              ok ? "result bytes differ for " + scenario.body
                 : "status " + std::to_string(result.response.status) +
                       " after retries: " + result.error;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return fleet;
}

}  // namespace netrec::test
