// Workload definitions: the preloaded instance and the seeded request
// stream each workload sends to the server.
//
// The preload (topology and demand placement) is fixed per workload — the
// generator seeds are constants, so every run plans over the same feasible
// instance.  The workload seed drives only the damage states, which are the
// whole input the server receives.  Request i of stream s under seed k is a
// pure function of (k, s, i), so a seed reproduces its request and
// fingerprint stream exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Topology family ("caida" | "barabasi_albert") and, for BA, its size.
  std::string family;
  std::size_t nodes = 0;
  std::size_t pairs = 8;
  double demand = 10.0;
  /// Share of nodes and, separately, of edges broken in every request.
  double damage_fraction = 0.2;
  std::size_t clients = 1;
  std::size_t workers = 1;
  std::size_t solve_threads = 1;
  /// Distinct damage states requested round-robin; 0 = every request is a
  /// never-seen state.
  std::size_t hot_states = 0;
  /// Requests sent during set-up before timing starts (plan_hot primes its
  /// hot states instead).
  std::size_t warmup_requests = 0;
  /// Distinct plans byte-compared against a direct PlanningEngine solve.
  std::size_t direct_sample = 4;
  /// Requests replayed through the layer functions in the traced run.
  std::size_t replay_requests = 8;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();

/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// Wall time of each preload step, seconds.
struct PreloadTimes {
  double topology = 0.0;
  double demand_placement = 0.0;
  double feasibility = 0.0;
};

struct Preload {
  netrec::core::RecoveryProblem problem;
  bool feasible = false;
};

/// Builds the workload's instance and checks Theorem 4's premise (demand
/// routable with everything repaired), one span per step.
Preload build_preload(const WorkloadSpec& spec, Tracer* tracer,
                      PreloadTimes& times);

/// Request streams: measured traffic and set-up warm-up never share states.
enum class Stream : std::uint64_t { kMeasured = 1, kWarmup = 2 };

struct PlanInput {
  netrec::serve::PlanRequest request;
  std::string body;         ///< wire JSON sent to POST /v1/plan
  std::string fingerprint;  ///< serve::fingerprint(request)
};

/// A damage state: exactly round(damage_fraction * n) distinct nodes and
/// round(damage_fraction * m) distinct edges, drawn from (seed, stream,
/// index).
PlanInput make_plan_input(const netrec::core::RecoveryProblem& problem,
                          const WorkloadSpec& spec, std::uint64_t seed,
                          Stream stream, std::uint64_t index);

/// The state served for the `index`-th measured request: a fresh state per
/// index, or hot state index % hot_states.
std::uint64_t state_index(const WorkloadSpec& spec, std::uint64_t index);

/// Applies the request's damage to `problem` (the graph must be intact).
void apply_damage(netrec::core::RecoveryProblem& problem,
                  const netrec::serve::PlanRequest& request, bool broken);

}  // namespace perfbench
