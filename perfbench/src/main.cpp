// netrec-bench: end-to-end netrecd planning benchmark.
//
//   perfbench --workload <plan_fresh|plan_hot|plan_scale> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--trace-out <path>]
//
// Drives an in-process serve::Server — the code netrecd runs — over
// loopback with closed-loop clients, then verifies every served plan with
// netrec's own referee (verify.hpp) and byte-compares a fixed sample
// against a direct PlanningEngine solve.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 is the traced run:
// the same served window (its first half untraced, its second half with
// client spans, giving the tracing overhead), then a replay of
// the workload's request stream through the public functions of each layer
// — serve (JSON parse, request parse, fingerprint, plan cache), engine,
// core, heuristics, mcf and graph — with a span around every call.  It
// reports the per-layer metrics and writes every span to --trace-out.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Exit status: 0 verified, 1 a check failed (the
// result line is still printed), 2 bad usage or a refused instance (no
// result line).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "graph/dijkstra.hpp"
#include "graph/view.hpp"
#include "heuristics/schedule.hpp"
#include "instance.hpp"
#include "loadgen.hpp"
#include "mcf/routing.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

using namespace netrec;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepetitions = 5;
/// GET /v1/health round trips behind serve.http_rtt_ms.
constexpr int kHealthProbes = 50;
/// Share of a fresh request's replayed wall time its layer spans must
/// cover.
constexpr double kMinCoverage = 0.95;
/// Plan-cache entries.  Small enough that plan_fresh fills it within
/// seconds, so the server's memory reaches its steady state (every insert
/// evicts) instead of growing with throughput; plan_hot's states all fit.
constexpr std::size_t kCacheCapacity = 256;
constexpr const char* kPlanEndpoint = "POST /v1/plan";
/// Client spans per traced run.  plan_hot's traced half holds ~300 000
/// requests; tracing the first ones is enough for the overhead estimate and
/// keeps the trace file a few MB.
constexpr long kMaxClientSpans = 20000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>] [--trace-out <path>]\n",
               message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--commit") {
        opt.commit = value;
      } else if (flag == "--source-digest") {
        opt.source_digest = value;
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(opt.workload) == nullptr) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Host CPU time stolen by the hypervisor, from /proc/stat's aggregate
/// line: {steal, total} in ticks ({0, 0} where unavailable).
std::pair<double, double> cpu_steal_ticks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return {0.0, 0.0};
  double field[8] = {};
  const int read = std::fscanf(stat, "cpu %lf %lf %lf %lf %lf %lf %lf %lf",
                               &field[0], &field[1], &field[2], &field[3],
                               &field[4], &field[5], &field[6], &field[7]);
  std::fclose(stat);
  if (read != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double ticks : field) total += ticks;
  return {field[7], total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- serving -----------------------------------------------------------------

struct ServedInstance {
  Preload preload;
  std::unique_ptr<serve::Server> server;
};

struct SetupRecord {
  PreloadTimes preload;
  double server_start = 0.0;
  double warmup = 0.0;
  double total = 0.0;
};

/// Sends `inputs` from `clients` concurrent threads; throws unless every
/// request returned 200.
void send_all(int port, const std::vector<PlanInput>& inputs,
              std::size_t clients) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ClientOptions copt;
      copt.jitter_seed = 0x3a11u + c;
      serve::Client client("127.0.0.1", port, copt);
      for (std::size_t i = next++; i < inputs.size(); i = next++) {
        if (client.request("POST", "/v1/plan", inputs[i].body)
                .response.status != 200) {
          ok = false;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (!ok) throw std::runtime_error("warm-up request failed");
}

/// Preload, server start and warm-up, up to the first timed request.
ServedInstance set_up(const WorkloadSpec& spec, std::uint64_t seed,
                      Tracer* tracer, SetupRecord& record) {
  ServedInstance served;
  Span root(tracer, "setup");
  served.preload = build_preload(spec, tracer, record.preload);
  if (!served.preload.feasible) {
    throw std::runtime_error(
        "workload " + spec.name +
        ": preloaded instance is infeasible even with every element "
        "repaired; refusing to benchmark it");
  }
  {
    Span span(tracer, "setup.server_start");
    serve::ServerOptions options;
    options.workers = spec.workers;
    options.cache_capacity = kCacheCapacity;
    options.queue_budget = 2 * std::max(spec.workers, spec.clients);
    options.enable_shutdown_endpoint = false;
    options.engine.solve_threads = spec.solve_threads;
    served.server =
        std::make_unique<serve::Server>(served.preload.problem, options);
    served.server->start();
    record.server_start = span.stop();
  }
  {
    // plan_hot primes its hot states; the others warm every worker's
    // engine on states the timed stream never repeats.
    Span span(tracer, "setup.warmup");
    std::vector<PlanInput> inputs;
    const core::RecoveryProblem& problem = served.preload.problem;
    if (spec.hot_states > 0) {
      for (std::size_t i = 0; i < spec.hot_states; ++i) {
        inputs.push_back(
            make_plan_input(problem, spec, seed, Stream::kMeasured, i));
      }
    } else {
      for (std::size_t i = 0; i < spec.warmup_requests; ++i) {
        inputs.push_back(
            make_plan_input(problem, spec, seed, Stream::kWarmup, i));
      }
    }
    send_all(served.server->port(), inputs, spec.clients);
    record.warmup = span.stop();
  }
  record.total = root.stop();
  return served;
}

/// What the clients received for one fingerprint.
struct ServedPlan {
  std::uint64_t state = 0;     ///< index into the measured stream
  std::string result;          ///< result bytes of the first response
  std::size_t response_bytes = 0;
  std::size_t responses = 0;   ///< 200 responses, degraded ones excluded
};

/// The timed window as the clients saw it.  Per-request data is only the
/// latency (a float), so memory stays flat however many requests a run
/// makes.
struct Window {
  double elapsed = 0.0;
  std::size_t attempted = 0;
  std::size_t refused = 0;   ///< final status other than 200
  std::size_t degraded = 0;
  std::size_t transient_errors = 0;
  /// Responses without a result object, or whose result bytes differ from
  /// an earlier response with the same fingerprint.
  std::size_t byte_mismatches = 0;
  std::vector<float> untraced_ms;  ///< latencies of 200 responses
  std::vector<float> traced_ms;
  std::map<std::string, ServedPlan> plans;  ///< by fingerprint
};

/// The closed loop: `spec.clients` threads each send their next request as
/// soon as the previous one returns, until the window closes.  Requests in
/// flight when it closes complete and count.  In the last
/// `traced_fraction` of the window the first kMaxClientSpans requests are
/// wrapped in a client span.
Window run_window(const WorkloadSpec& spec, const ServedInstance& served,
                  std::uint64_t seed, double seconds, Tracer* tracer,
                  double traced_fraction) {
  const core::RecoveryProblem& problem = served.preload.problem;
  const int port = served.server->port();
  std::vector<PlanInput> hot;
  for (std::size_t i = 0; i < spec.hot_states; ++i) {
    hot.push_back(make_plan_input(problem, spec, seed, Stream::kMeasured, i));
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<long> span_budget{kMaxClientSpans};
  std::vector<Window> per_client(spec.clients);
  std::vector<double> ends(spec.clients, 0.0);
  const double start = now_seconds();
  const double deadline = start + seconds;
  const double traced_from = deadline - seconds * traced_fraction;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      Window& mine = per_client[c];
      mine.untraced_ms.reserve(1 << 20);  // address space only
      mine.traced_ms.reserve(1 << 20);
      while (now_seconds() < deadline) {
        const std::uint64_t state = state_index(spec, next++);
        PlanInput fresh;
        if (spec.hot_states == 0) {
          fresh = make_plan_input(problem, spec, seed, Stream::kMeasured,
                                  state);
        }
        const PlanInput& input = spec.hot_states > 0 ? hot[state] : fresh;
        const bool traced =
            now_seconds() >= traced_from && span_budget.fetch_sub(1) > 0;
        PostResult result;
        double latency = 0.0;
        {
          Span span(traced ? tracer : nullptr, "client.plan",
                    input.fingerprint);
          result = post(port, "/v1/plan", input.body);
          latency = span.stop();
        }
        ++mine.attempted;
        mine.transient_errors +=
            static_cast<std::size_t>(result.transient_errors);
        if (result.status != 200) {
          ++mine.refused;
          continue;
        }
        (traced ? mine.traced_ms : mine.untraced_ms)
            .push_back(static_cast<float>(latency * 1e3));
        if (meta_flag(result.response, "degraded")) {
          ++mine.degraded;
          continue;
        }
        std::string_view bytes;
        if (!extract_result_bytes(result.response, bytes)) {
          ++mine.byte_mismatches;
          continue;
        }
        ServedPlan& plan = mine.plans[input.fingerprint];
        if (plan.responses == 0) {
          plan.state = state;
          plan.result = bytes;
          plan.response_bytes = result.response.size();
        } else if (plan.result != bytes) {
          ++mine.byte_mismatches;
          continue;
        }
        ++plan.responses;
      }
      ends[c] = now_seconds();
    });
  }
  for (std::thread& thread : threads) thread.join();

  Window window;
  window.elapsed = *std::max_element(ends.begin(), ends.end()) - start;
  std::size_t untraced = 0, traced = 0;
  for (const Window& mine : per_client) {
    untraced += mine.untraced_ms.size();
    traced += mine.traced_ms.size();
  }
  window.untraced_ms.reserve(untraced);
  window.traced_ms.reserve(traced);
  for (Window& mine : per_client) {
    window.attempted += mine.attempted;
    window.refused += mine.refused;
    window.degraded += mine.degraded;
    window.transient_errors += mine.transient_errors;
    window.byte_mismatches += mine.byte_mismatches;
    window.untraced_ms.insert(window.untraced_ms.end(),
                              mine.untraced_ms.begin(),
                              mine.untraced_ms.end());
    window.traced_ms.insert(window.traced_ms.end(), mine.traced_ms.begin(),
                            mine.traced_ms.end());
    for (auto& [fingerprint, plan] : mine.plans) {
      auto [it, inserted] = window.plans.emplace(fingerprint, plan);
      if (inserted) continue;
      if (it->second.result != plan.result) {
        window.byte_mismatches += plan.responses;
      } else {
        it->second.responses += plan.responses;
      }
    }
  }
  return window;
}

/// Served plans in stream order.
std::vector<std::pair<std::string, const ServedPlan*>> in_stream_order(
    const Window& window) {
  std::vector<std::pair<std::string, const ServedPlan*>> out;
  for (const auto& [fingerprint, plan] : window.plans) {
    out.emplace_back(fingerprint, &plan);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->state < b.second->state;
  });
  return out;
}

// --- verification --------------------------------------------------------------

struct Verification {
  /// Per fingerprint: the referee's verdict on its payload.
  std::map<std::string, PlanCheck> checks;
  std::size_t direct_compared = 0;
  std::size_t watchdog_activations = 0;
  std::vector<std::string> errors;
};

/// Re-scores and validates every distinct served payload (on up to four
/// threads, each with its own copy of the instance), then byte-compares
/// the first `direct_sample` states of the stream against a direct solve.
Verification verify_window(const WorkloadSpec& spec, const Window& window,
                           const core::RecoveryProblem& baseline,
                           std::uint64_t seed) {
  Verification out;
  const auto plans = in_stream_order(window);
  std::vector<PlanCheck> checks(plans.size());
  std::atomic<std::size_t> next{0};
  const std::size_t threads_wanted = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < threads_wanted; ++t) {
    threads.emplace_back([&] {
      core::RecoveryProblem problem = baseline;
      for (std::size_t i = next++; i < plans.size(); i = next++) {
        const auto& [fingerprint, plan] = plans[i];
        const PlanInput input = make_plan_input(
            baseline, spec, seed, Stream::kMeasured, plan->state);
        apply_damage(problem, input.request, true);
        checks[i] = input.fingerprint == fingerprint
                        ? verify_plan(problem, plan->result)
                        : PlanCheck{false, "request stream not reproducible"};
        apply_damage(problem, input.request, false);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!checks[i].ok) {
      out.errors.push_back("plan " + plans[i].first + ": " + checks[i].error);
    }
    out.checks.emplace(plans[i].first, std::move(checks[i]));
  }

  serve::EngineOptions engine_options;
  engine_options.solve_threads = spec.solve_threads;
  serve::PlanningEngine direct(baseline, engine_options);
  core::RecoveryProblem problem = baseline;
  core::IspOptions isp = engine_options.isp;
  std::optional<util::ThreadPool> pool_storage;
  isp.pool = util::ThreadPool::acquire(pool_storage, spec.solve_threads,
                                       nullptr);
  isp.solve_threads = spec.solve_threads;
  for (std::size_t i = 0; i < plans.size() && i < spec.direct_sample; ++i) {
    const auto& [fingerprint, plan] = plans[i];
    const PlanInput input = make_plan_input(baseline, spec, seed,
                                            Stream::kMeasured, plan->state);
    ++out.direct_compared;
    if (direct.solve(input.request).payload.dump() != plan->result) {
      out.errors.push_back("plan " + fingerprint +
                           ": served bytes differ from a direct solve");
    }
    apply_damage(problem, input.request, true);
    core::IspSolver solver(problem, isp);
    solver.solve();
    out.watchdog_activations += solver.stats().watchdog_activations;
    apply_damage(problem, input.request, false);
  }
  return out;
}

// --- traced replay -------------------------------------------------------------

struct ReplayCounts {
  std::vector<double> iterations, prunes, splits, direct_edge_repairs,
      watchdog_activations, satisfied_fraction, schedule_steps;
};

/// Replays the first `replay_requests` states of the stream through each
/// layer's public functions, one span per call.  The serve-path replay
/// mirrors Server::handle_plan; the layer replay times the pieces a fresh
/// solve is made of.  For plan_hot the local cache is primed with the
/// served payloads, as the server's was.
ReplayCounts replay(const WorkloadSpec& spec, const Window& window,
                    const core::RecoveryProblem& baseline, std::uint64_t seed,
                    Tracer* tracer) {
  ReplayCounts counts;
  serve::EngineOptions engine_options;
  engine_options.solve_threads = spec.solve_threads;
  serve::PlanningEngine engine(baseline, engine_options);
  serve::PlanCache cache(4096);
  std::vector<PlanInput> inputs;
  for (const auto& [fingerprint, plan] : in_stream_order(window)) {
    if (inputs.size() == spec.replay_requests) break;
    inputs.push_back(make_plan_input(baseline, spec, seed, Stream::kMeasured,
                                     plan->state));
    if (spec.hot_states > 0) {
      cache.insert(serve::canonical_key(inputs.back().request), plan->result);
    }
  }

  for (const PlanInput& input : inputs) {
    Span root(tracer, "replay.request", input.fingerprint);
    util::Json parsed;
    serve::PlanRequest request;
    std::string key;
    {
      Span span(tracer, "serve.json_parse");
      parsed = util::Json::parse(input.body);
    }
    {
      Span span(tracer, "serve.parse_request");
      request = serve::parse_plan_request(parsed, baseline);
    }
    {
      Span span(tracer, "serve.fingerprint");
      key = serve::canonical_key(request);
      serve::fingerprint(request);
    }
    std::shared_ptr<const std::string> payload;
    {
      Span span(tracer, "serve.cache_find");
      payload = cache.find(key);
    }
    if (!payload) {
      serve::PlanOutcome outcome;
      {
        Span span(tracer, "engine.solve");
        outcome = engine.solve(request);
      }
      std::string dumped;
      {
        Span span(tracer, "serve.payload_dump");
        dumped = outcome.payload.dump();
      }
      {
        Span span(tracer, "serve.cache_insert");
        cache.insert(key, std::move(dumped));
      }
    }
  }

  core::RecoveryProblem problem = baseline;
  core::IspOptions isp = engine_options.isp;
  std::optional<util::ThreadPool> pool_storage;
  isp.pool = util::ThreadPool::acquire(pool_storage, spec.solve_threads,
                                       nullptr);
  isp.solve_threads = spec.solve_threads;
  for (const PlanInput& input : inputs) {
    apply_damage(problem, input.request, true);
    {
      Span root(tracer, "replay.layers", input.fingerprint);
      std::optional<graph::GraphView> working;
      {
        Span span(tracer, "graph.view_build");
        working.emplace(graph::GraphView::working(problem.graph));
      }
      {
        Span span(tracer, "mcf.routable_probe");
        mcf::is_routable(*working, problem.demands);
      }
      core::RecoverySolution solution;
      core::IspStats stats;
      {
        Span span(tracer, "core.isp_solve");
        core::IspSolver solver(problem, isp);
        solution = solver.solve();
        stats = solver.stats();
      }
      {
        core::RecoverySolution rescored;
        rescored.repaired_nodes = solution.repaired_nodes;
        rescored.repaired_edges = solution.repaired_edges;
        Span span(tracer, "core.score_solution");
        core::score_solution(problem, rescored);
      }
      std::size_t steps = 0;
      {
        Span span(tracer, "heuristics.schedule");
        steps = heuristics::schedule_repairs(problem, solution).steps.size();
      }
      const graph::GraphView full = graph::GraphView::build(problem.graph);
      {
        Span span(tracer, "core.centrality");
        core::demand_based_centrality(full, problem.demands);
      }
      {
        Span span(tracer, "graph.sssp");
        for (const mcf::Demand& demand : problem.demands) {
          graph::dijkstra(full, demand.source);
        }
      }
      counts.iterations.push_back(static_cast<double>(stats.iterations));
      counts.prunes.push_back(static_cast<double>(stats.prunes));
      counts.splits.push_back(static_cast<double>(stats.splits));
      counts.direct_edge_repairs.push_back(
          static_cast<double>(stats.direct_edge_repairs));
      counts.watchdog_activations.push_back(
          static_cast<double>(stats.watchdog_activations));
      counts.satisfied_fraction.push_back(solution.satisfied_fraction);
      counts.schedule_steps.push_back(static_cast<double>(steps));
    }
    apply_damage(problem, input.request, false);
  }
  return counts;
}

// --- reporting -----------------------------------------------------------------

util::Json metric(double value, const char* unit) {
  util::Json out = util::Json::object();
  out.set("value", value);
  out.set("unit", unit);
  return out;
}

util::Json host_record(const Options& opt) {
  util::Json host = util::Json::object();
  host.set("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()));
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("compiler", PERFBENCH_COMPILER);
  host.set("commit", opt.commit);
  host.set("source_digest", opt.source_digest);
  host.set("workload", opt.workload);
  host.set("seed", static_cast<double>(opt.seed));
  return host;
}

double median_of(const std::map<std::string, std::vector<double>>& by_name,
                 const std::string& name, double scale) {
  const auto it = by_name.find(name);
  if (it == by_name.end()) return 0.0;
  std::vector<double> durations = it->second;
  return median(durations) * scale;
}

void write_trace_file(const std::string& path, const util::Json& host,
                      const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  util::Json list = util::Json::array();
  std::map<std::string, double> layer_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    util::Json entry = util::Json::object();
    entry.set("name", span.name);
    entry.set("start_us", (span.start - origin) * 1e6);
    entry.set("end_us", (span.end - origin) * 1e6);
    entry.set("self_us", self[i] * 1e6);
    entry.set("parent", static_cast<double>(span.parent));
    entry.set("request", span.request);
    list.push_back(std::move(entry));
    layer_self[span.name.substr(0, span.name.find('.'))] += self[i] * 1e3;
  }
  util::Json layers = util::Json::object();
  for (const auto& [layer, ms] : layer_self) layers.set(layer, ms);
  util::Json out = util::Json::object();
  out.set("host", host);
  out.set("layer_self_ms", std::move(layers));
  out.set("spans", std::move(list));
  util::write_json_file(path, out);
}

int run(const Options& opt) {
  const WorkloadSpec& spec = *find_workload(opt.workload);
  Tracer tracer(opt.trace);
  Tracer* tracing = opt.trace ? &tracer : nullptr;

  const util::Json host = host_record(opt);
  std::printf("host %s\n", host.dump().c_str());
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "warning: benchmark built as %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
  }

  // Set up several times; the last instance serves the timed window.
  std::vector<SetupRecord> setups;
  ServedInstance served;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    served = ServedInstance{};  // stops the previous repetition's server
    setups.emplace_back();
    served = set_up(spec, opt.seed, tracing, setups.back());
  }
  const core::RecoveryProblem& baseline = served.preload.problem;

  const serve::PlanCache::Stats cache_before = served.server->cache_stats();
  const std::uint64_t shed_before = served.server->shed_total();
  const std::uint64_t degraded_before = served.server->degraded_total();
  const auto steal_before = cpu_steal_ticks();
  Window window = run_window(spec, served, opt.seed, opt.seconds, tracing,
                             opt.trace ? 0.5 : 0.0);
  const auto steal_after = cpu_steal_ticks();
  const serve::PlanCache::Stats cache_after = served.server->cache_stats();
  const std::uint64_t shed_total = served.server->shed_total() - shed_before;
  const std::uint64_t degraded_total =
      served.server->degraded_total() - degraded_before;

  double http_rtt_ms = 0.0;
  double server_p50_ms = 0.0;
  if (opt.trace) {
    serve::Client client("127.0.0.1", served.server->port());
    std::vector<double> rtts;
    for (int i = 0; i < kHealthProbes; ++i) {
      Span span(tracing, "serve.health");
      client.request("GET", "/v1/health");
      rtts.push_back(span.stop() * 1e3);
    }
    http_rtt_ms = median(rtts);
    const util::Json metrics = util::Json::parse(
        client.request("GET", "/v1/metrics").response.body);
    server_p50_ms = metrics.at("endpoints")
                        .at(kPlanEndpoint)
                        .at("latency_ms")
                        .at("p50")
                        .as_number();
  }
  served.server->stop();

  // --- outputs and witness ---------------------------------------------------
  const Verification verification =
      verify_window(spec, window, baseline, opt.seed);
  std::vector<std::string> errors = verification.errors;

  // Every attempted request either yields a verified plan or counts as
  // failed: refused, degraded, malformed or byte-inconsistent, or carrying
  // a plan the referee rejected.
  std::size_t failed = window.refused + window.degraded +
                       window.byte_mismatches;
  double cost_sum = 0.0, auc_sum = 0.0, bytes_sum = 0.0, flow_routed = 0.0;
  double min_satisfied = 1.0;
  std::size_t verified = 0;
  bool fresh_repeated = false;
  for (const auto& [fingerprint, plan] : window.plans) {
    const PlanCheck& check = verification.checks.at(fingerprint);
    fresh_repeated = fresh_repeated || plan.responses > 1;
    if (!check.ok) {
      failed += plan.responses;
      continue;
    }
    const auto n = static_cast<double>(plan.responses);
    verified += plan.responses;
    cost_sum += n * check.repair_cost;
    auc_sum += n * check.restoration_auc;
    bytes_sum += n * static_cast<double>(plan.response_bytes);
    flow_routed += check.flow_routed;
    min_satisfied = std::min(min_satisfied, check.satisfied_fraction);
  }
  if (window.byte_mismatches > 0) {
    errors.push_back(std::to_string(window.byte_mismatches) +
                     " responses lack a result or differ from another "
                     "response for the same fingerprint");
  }
  const std::size_t attempted = window.attempted;
  const double per_plan =
      verified == 0 ? 0.0 : 1.0 / static_cast<double>(verified);
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t lookups =
      hits + (cache_after.misses - cache_before.misses);
  const double hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);

  // The witness must show the claimed work happened.
  if (attempted == 0) errors.push_back("no request completed in the window");
  if (!(flow_routed > 0.0)) errors.push_back("witness: no flow routed");
  if (spec.hot_states > 0) {
    if (hit_ratio < 1.0) {
      errors.push_back("witness: plan_hot cache hit ratio " +
                       std::to_string(hit_ratio) + " below the designed 1");
    }
  } else {
    if (hits > 0) {
      errors.push_back("witness: " + std::to_string(hits) +
                       " cache hits on a never-repeated stream");
    }
    if (fresh_repeated) {
      errors.push_back("witness: fingerprints repeat in a fresh stream");
    }
  }

  const std::size_t latency_samples =
      window.untraced_ms.size() + window.traced_ms.size();
  std::vector<double> setup_totals;
  for (const SetupRecord& record : setups) setup_totals.push_back(record.total);

  util::Json witness = util::Json::object();
  witness.set("feasible", served.preload.feasible);
  witness.set("satisfied_fraction", min_satisfied);
  witness.set("watchdog_activations",
              static_cast<double>(verification.watchdog_activations));
  witness.set("flow_routed", flow_routed);
  witness.set("distinct_fingerprints",
              static_cast<double>(window.plans.size()));
  witness.set("cache_hit_ratio", hit_ratio);
  witness.set("direct_compared",
              static_cast<double>(verification.direct_compared));
  witness.set("latency_samples", static_cast<double>(latency_samples));
  witness.set("samples_beyond_p90",
              static_cast<double>(samples_beyond(latency_samples, 0.9)));
  // Share of the host's CPU time the hypervisor took during the window: on
  // a shared VM, the first thing to check when a run reads slow.
  const double ticks = steal_after.second - steal_before.second;
  witness.set("host_steal_fraction",
              ticks > 0.0 ? (steal_after.first - steal_before.first) / ticks
                          : 0.0);
  std::printf("witness %s\n", witness.dump().c_str());

  util::Json metrics = util::Json::object();
  if (!opt.trace) {
    const auto ok_plans = static_cast<double>(verified);
    metrics.set("plans_per_s", metric(ok_plans / window.elapsed, "1/s"));
    // Untraced: every latency is in untraced_ms.
    std::vector<float>& latencies = window.untraced_ms;
    metrics.set("plan_p50_ms", metric(percentile(latencies, 0.5), "ms"));
    metrics.set("plan_p90_ms", metric(percentile(latencies, 0.9), "ms"));
    metrics.set("ok_fraction",
                metric(attempted == 0 ? 0.0
                                      : ok_plans /
                                            static_cast<double>(attempted),
                       "ratio"));
    metrics.set("setup_s", metric(median(setup_totals), "s"));
    metrics.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
    metrics.set("repair_cost_mean", metric(cost_sum * per_plan, "cost"));
    metrics.set("restoration_auc_mean", metric(auc_sum * per_plan, "ratio"));
  } else {
    const ReplayCounts counts =
        replay(spec, window, baseline, opt.seed, tracing);
    const std::vector<SpanRecord> spans = tracer.spans();
    const auto by_name = durations_by_name(spans);
    const std::vector<double> self = self_times(spans);
    // Coverage: share of each fresh replayed request's wall time its
    // layer spans account for.
    double coverage = 1.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double wall = spans[i].end - spans[i].start;
      if (spans[i].name != "replay.request" || wall <= 0.0) continue;
      bool solved = false;
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        if (spans[j].parent == static_cast<long>(i) &&
            spans[j].name == "engine.solve") {
          solved = true;
        }
      }
      if (solved) coverage = std::min(coverage, 1.0 - self[i] / wall);
    }
    if (coverage < kMinCoverage) {
      errors.push_back("trace: layer spans cover only " +
                       std::to_string(coverage) +
                       " of a fresh request's wall time");
    }
    std::vector<double> setup_part[5];
    for (const SetupRecord& record : setups) {
      setup_part[0].push_back(record.preload.topology * 1e3);
      setup_part[1].push_back(record.preload.demand_placement * 1e3);
      setup_part[2].push_back(record.preload.feasibility * 1e3);
      setup_part[3].push_back(record.server_start * 1e3);
      setup_part[4].push_back(record.warmup * 1e3);
    }
    std::vector<float> all = window.untraced_ms;
    all.insert(all.end(), window.traced_ms.begin(), window.traced_ms.end());
    const double client_p50 = percentile(all, 0.5);

    metrics.set("setup.topology_ms", metric(median(setup_part[0]), "ms"));
    metrics.set("setup.demand_placement_ms",
                metric(median(setup_part[1]), "ms"));
    metrics.set("setup.feasibility_ms", metric(median(setup_part[2]), "ms"));
    metrics.set("setup.server_start_ms", metric(median(setup_part[3]), "ms"));
    metrics.set("setup.warmup_ms", metric(median(setup_part[4]), "ms"));
    metrics.set("serve.http_rtt_ms", metric(http_rtt_ms, "ms"));
    metrics.set("serve.json_parse_us",
                metric(median_of(by_name, "serve.json_parse", 1e6), "us"));
    metrics.set("serve.parse_request_us",
                metric(median_of(by_name, "serve.parse_request", 1e6), "us"));
    metrics.set("serve.fingerprint_us",
                metric(median_of(by_name, "serve.fingerprint", 1e6), "us"));
    metrics.set("serve.cache_find_us",
                metric(median_of(by_name, "serve.cache_find", 1e6), "us"));
    metrics.set("serve.response_bytes",
                metric(bytes_sum * per_plan, "bytes"));
    metrics.set("serve.cache_insert_us",
                metric(median_of(by_name, "serve.cache_insert", 1e6), "us"));
    metrics.set("serve.payload_dump_us",
                metric(median_of(by_name, "serve.payload_dump", 1e6), "us"));
    metrics.set("serve.server_p50_ms", metric(server_p50_ms, "ms"));
    metrics.set("serve.queue_wait_ms",
                metric(client_p50 - server_p50_ms, "ms"));
    metrics.set("serve.cache_hit_ratio", metric(hit_ratio, "ratio"));
    metrics.set("serve.transient_errors",
                metric(static_cast<double>(window.transient_errors), "count"));
    metrics.set("serve.shed_total",
                metric(static_cast<double>(shed_total), "count"));
    metrics.set("engine.degraded_total",
                metric(static_cast<double>(degraded_total), "count"));
    metrics.set("engine.solve_ms",
                metric(median_of(by_name, "engine.solve", 1e3), "ms"));
    metrics.set("core.isp_solve_ms",
                metric(median_of(by_name, "core.isp_solve", 1e3), "ms"));
    metrics.set("core.score_solution_ms",
                metric(median_of(by_name, "core.score_solution", 1e3), "ms"));
    metrics.set("core.centrality_ms",
                metric(median_of(by_name, "core.centrality", 1e3), "ms"));
    metrics.set("core.isp_iterations",
                metric(mean(counts.iterations), "count"));
    metrics.set("core.isp_prunes", metric(mean(counts.prunes), "count"));
    metrics.set("core.isp_splits", metric(mean(counts.splits), "count"));
    metrics.set("core.isp_direct_edge_repairs",
                metric(mean(counts.direct_edge_repairs), "count"));
    metrics.set("core.isp_watchdog_activations",
                metric(mean(counts.watchdog_activations), "count"));
    metrics.set("core.satisfied_fraction_mean",
                metric(mean(counts.satisfied_fraction), "ratio"));
    metrics.set("heuristics.schedule_ms",
                metric(median_of(by_name, "heuristics.schedule", 1e3), "ms"));
    metrics.set("heuristics.schedule_steps",
                metric(mean(counts.schedule_steps), "count"));
    metrics.set("mcf.routable_probe_ms",
                metric(median_of(by_name, "mcf.routable_probe", 1e3), "ms"));
    metrics.set("graph.view_build_ms",
                metric(median_of(by_name, "graph.view_build", 1e3), "ms"));
    metrics.set("graph.sssp_ms",
                metric(median_of(by_name, "graph.sssp", 1e3), "ms"));
    metrics.set("trace.overhead_ms",
                metric(percentile(window.traced_ms, 0.5) -
                           percentile(window.untraced_ms, 0.5),
                       "ms"));
    metrics.set("trace.coverage", metric(coverage, "ratio"));
    if (!opt.trace_out.empty()) {
      write_trace_file(opt.trace_out, host, spans);
      std::printf("trace %zu spans -> %s\n", spans.size(),
                  opt.trace_out.c_str());
    }
  }

  for (const std::string& error : errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  const bool correct = errors.empty();
  util::Json result = util::Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<double>(attempted));
  result.set("failed", static_cast<double>(failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  netrec::util::set_log_level(netrec::util::LogLevel::kWarn);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
