// Self-tests for the benchmark harness: percentiles, the plan verifier,
// request-stream determinism and fresh-stream distinctness.
//
//   perfbench_selftest        (or: python3 perfbench/run.py --selftest)
//
// Prints one line per check and exits 1 if any fails.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "instance.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "verify.hpp"

namespace {

using namespace netrec;
using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentiles() {
  const auto pct = [](std::vector<double> samples, double q) {
    return percentile(samples, q);
  };
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(pct(ten, 0.5) == 5, "p50 of 1..10 is 5 (nearest rank)");
  expect(pct(ten, 0.9) == 9, "p90 of 1..10 is 9");
  expect(pct(ten, 0.91) == 10, "p91 of 1..10 is 10");
  expect(pct(ten, 0.0) == 1, "p0 is the minimum");
  expect(pct(ten, 1.0) == 10, "p100 is the maximum");
  expect(pct({}, 0.5) == 0, "empty sample gives 0");
  expect(pct({42}, 0.9) == 42, "single sample is every percentile");
  std::vector<float> floats = {3.5f, 1.5f, 2.5f};
  expect(percentile(floats, 0.5) == 2.5 && percentile(floats, 0.9) == 3.5,
         "percentiles of a reordered vector stay exact");
  expect(samples_beyond(100, 0.9) == 10, "p90 of 100 leaves 10 beyond");
  expect(samples_beyond(99, 0.9) == 9, "p90 of 99 leaves 9 beyond");
}

void test_self_time() {
  std::vector<SpanRecord> spans = {
      {"root", 0.0, 10.0, -1, "r"},
      {"a", 1.0, 4.0, 0, "r"},
      {"b", 3.0, 6.0, 0, "r"},  // overlaps a: union 1..6
      {"c", 8.0, 12.0, 0, "r"}, // clipped to the parent: 8..10
  };
  const std::vector<double> self = self_times(spans);
  expect(self[0] == 3.0, "root self time excludes the union of children");
  expect(self[1] == 3.0, "leaf self time is its duration");
}

void test_streams(const core::RecoveryProblem& problem) {
  const WorkloadSpec& fresh = *find_workload("plan_fresh");
  bool same = true;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const PlanInput a = make_plan_input(problem, fresh, 7, Stream::kMeasured, i);
    const PlanInput b = make_plan_input(problem, fresh, 7, Stream::kMeasured, i);
    same = same && a.body == b.body && a.fingerprint == b.fingerprint;
  }
  expect(same, "same seed gives the same request/fingerprint stream");

  const PlanInput other = make_plan_input(problem, fresh, 8, Stream::kMeasured, 0);
  expect(other.fingerprint !=
             make_plan_input(problem, fresh, 7, Stream::kMeasured, 0)
                 .fingerprint,
         "another seed gives another stream");

  std::set<std::string> fingerprints;
  const std::size_t n = 2000;
  for (std::uint64_t i = 0; i < n; ++i) {
    fingerprints.insert(
        make_plan_input(problem, fresh, 7, Stream::kMeasured, i).fingerprint);
  }
  for (std::uint64_t i = 0; i < fresh.warmup_requests; ++i) {
    fingerprints.insert(
        make_plan_input(problem, fresh, 7, Stream::kWarmup, i).fingerprint);
  }
  expect(fingerprints.size() == n + fresh.warmup_requests,
         "plan_fresh fingerprints are all distinct (2000 requests + warm-up)");

  const PlanInput first = make_plan_input(problem, fresh, 7, Stream::kMeasured, 0);
  expect(first.request.broken_nodes.size() == 165 &&
             first.request.broken_edges.size() == 204,
         "20% of 825 nodes and of 1018 edges are broken");

  const WorkloadSpec& hot = *find_workload("plan_hot");
  expect(state_index(hot, 64) == 0 && state_index(hot, 69) == 5 &&
             state_index(fresh, 69) == 69,
         "plan_hot cycles its 64 states; plan_fresh never repeats");
}

void test_verifier(const core::RecoveryProblem& baseline) {
  const WorkloadSpec& fresh = *find_workload("plan_fresh");
  serve::PlanningEngine engine(baseline);
  core::RecoveryProblem damaged = baseline;
  // The first state of seed 1 whose plan repairs something.
  for (std::uint64_t i = 0; i < 16; ++i) {
    const PlanInput input =
        make_plan_input(baseline, fresh, 1, Stream::kMeasured, i);
    const std::string bytes = engine.solve(input.request).payload.dump();
    util::Json payload = util::Json::parse(bytes);
    if (payload.at("repairs").size() < 2) continue;

    apply_damage(damaged, input.request, true);
    expect(verify_plan(damaged, bytes).ok, "verifier accepts a served plan");

    // Tamper: drop the last repair, keep every other field.
    util::Json repairs = util::Json::array();
    for (std::size_t r = 0; r + 1 < payload.at("repairs").size(); ++r) {
      repairs.push_back(payload.at("repairs").at(r));
    }
    util::Json tampered = util::Json::object();
    for (const std::string& key : payload.keys()) {
      tampered.set(key, key == "repairs" ? repairs : payload.at(key));
    }
    const PlanCheck dropped = verify_plan(damaged, tampered.dump());
    expect(!dropped.ok, "verifier rejects a plan with one repair dropped (" +
                            dropped.error + ")");

    // Tamper consistently: also fix the claimed count and cost, so only
    // the re-scored routing can tell.
    bool caught = false;
    for (std::size_t drop = 0; drop < payload.at("repairs").size(); ++drop) {
      util::Json kept = util::Json::array();
      for (std::size_t r = 0; r < payload.at("repairs").size(); ++r) {
        if (r != drop) kept.push_back(payload.at("repairs").at(r));
      }
      util::Json forged = util::Json::object();
      for (const std::string& key : payload.keys()) {
        forged.set(key, key == "repairs" ? kept : payload.at(key));
      }
      core::RecoverySolution solution = solution_from_payload(forged);
      core::score_solution(damaged, solution);
      forged.set("total_repairs", static_cast<double>(kept.size()));
      forged.set("repair_cost", solution.repair_cost);
      caught = caught || !verify_plan(damaged, forged.dump()).ok;
    }
    expect(caught,
           "re-scoring rejects a dropped repair even when the claims match");
    apply_damage(damaged, input.request, false);
    return;
  }
  expect(false, "found a plan with at least two repairs to tamper with");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  PreloadTimes times;
  const Preload preload =
      build_preload(*find_workload("plan_fresh"), nullptr, times);
  expect(preload.feasible, "plan_fresh preload is feasible");
  test_streams(preload.problem);
  test_verifier(preload.problem);
  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "SELF-TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
