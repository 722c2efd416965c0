// Intra-solve parallelism benchmark: the three kernels PR 7 fans out on
// util::ThreadPool — parallel Brandes betweenness, the batched per-demand
// centrality enumeration, and the session's concurrent LP pricing (measured
// end-to-end through an ISP solve) — each timed at thread counts {1, 2, 4,
// 8} against its serial twin.
//
// Every kernel is identity-checked before it is timed: the parallel result
// must equal the serial result *exactly* (the deterministic-merge contract
// promises the serial kernel's floating-point operation stream, so equality
// is bitwise, never tolerance-based).  A mismatch is recorded in the JSON
// (identity_ok: false) and the driver exits nonzero — CI gates on the
// archived artifact, so timings with a broken identity never look like a
// win.
//
// Workloads:
//   * betweenness_er   — ER n=300 (default), all |V| source passes; the
//     tripwire kernel: CI requires speedup_at_4 >= 1.5x when the host has
//     >= 4 hardware threads (the check is skipped below that, but identity
//     is always enforced).
//   * betweenness_rmat — RMAT n=1e5 (default), pivot-limited passes
//     (--rmat-sources); the internet-scale shape where per-source cost
//     dwarfs the merge.
//   * centrality       — demand-based centrality (eq. 3) batch on a broken
//     ER instance, shared source trees on, per-demand enumeration fan-out.
//   * isp              — a full ISP solve (ViewCache + session LP) with
//     IspOptions::pool set, exercising concurrent pricing plus both
//     kernels above in situ.
//
// hardware_threads (std::thread::hardware_concurrency) is recorded so the
// artifact explains itself on constrained runners: with one core, speedups
// hover around 1.0x and only the identity columns carry information.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "core/problem.hpp"
#include "disruption/disruption.hpp"
#include "graph/betweenness.hpp"
#include "graph/traversal.hpp"
#include "graph/view.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace netrec;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// Per-kernel record accumulated into the JSON artifact.
struct KernelReport {
  double serial_seconds = 0.0;
  std::vector<double> thread_seconds;  ///< parallel kThreadCounts order
  bool identity_ok = true;

  double speedup_at(std::size_t threads) const {
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      if (kThreadCounts[i] == threads && thread_seconds[i] > 0.0) {
        return serial_seconds / thread_seconds[i];
      }
    }
    return 0.0;
  }

  util::Json to_json() const {
    util::Json entry = util::Json::object();
    entry.set("serial_seconds", serial_seconds);
    util::Json per_threads = util::Json::object();
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      per_threads.set(std::to_string(kThreadCounts[i]), thread_seconds[i]);
    }
    entry.set("threads_seconds", std::move(per_threads));
    entry.set("speedup_at_4", speedup_at(4));
    entry.set("identity_ok", identity_ok);
    return entry;
  }
};

void print_report(const char* name, const KernelReport& report) {
  std::printf("%-16s serial %.4fs |", name, report.serial_seconds);
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    std::printf(" t%zu %.4fs", kThreadCounts[i], report.thread_seconds[i]);
  }
  std::printf(" | x4 %.2fx | identity %s\n", report.speedup_at(4),
              report.identity_ok ? "ok" : "FAIL");
}

/// Times `run` over `runs` repetitions and returns the mean seconds; the
/// first (untimed) call's result is handed to `check` for the identity
/// gate, so every configuration is verified even at --runs 1.
template <typename Run, typename Check>
double time_kernel(int runs, bool& identity_ok, const Run& run,
                   const Check& check) {
  if (!check(run())) identity_ok = false;
  util::Timer timer;
  for (int r = 0; r < runs; ++r) run();
  return timer.elapsed_seconds() / static_cast<double>(runs);
}

/// Broken ER instance with far-apart demands.
core::RecoveryProblem er_problem(std::size_t nodes, double edge_prob,
                                 std::size_t pairs, double flow,
                                 util::Rng& rng) {
  core::RecoveryProblem problem;
  topology::ErdosRenyiOptions eopt;
  eopt.nodes = nodes;
  eopt.edge_probability = edge_prob;
  eopt.capacity = 4.0 * flow;
  std::size_t attempts = 0;
  do {
    problem.graph = topology::make_topology(eopt, rng);
  } while (graph::hop_diameter(graph::GraphView::build(problem.graph)) < 0 &&
           ++attempts < 50);
  util::Rng demand_rng = rng.fork();
  problem.demands =
      scenario::far_apart_demands(problem.graph, pairs, flow, demand_rng);
  for (std::size_t n = 0; n < problem.graph.num_nodes(); ++n) {
    if (rng.chance(0.6)) {
      problem.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
    }
  }
  for (std::size_t e = 0; e < problem.graph.num_edges(); ++e) {
    if (rng.chance(0.6)) {
      problem.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
    }
  }
  return problem;
}

/// Brandes scaling on one view: serial reference, then each pool size, each
/// pinned exactly against the reference.
KernelReport bench_betweenness(const graph::GraphView& view,
                               std::size_t source_limit, int runs) {
  KernelReport report;
  const std::vector<double> reference =
      graph::betweenness_centrality(view, nullptr, source_limit);
  {
    util::Timer timer;
    for (int r = 0; r < runs; ++r) {
      graph::betweenness_centrality(view, nullptr, source_limit);
    }
    report.serial_seconds = timer.elapsed_seconds() / runs;
  }
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    report.thread_seconds.push_back(time_kernel(
        runs, report.identity_ok,
        [&] {
          return graph::betweenness_centrality(view, &pool, source_limit);
        },
        [&](const std::vector<double>& scores) {
          return scores == reference;
        }));
  }
  return report;
}

bool same_centrality(const core::CentralityResult& a,
                     const core::CentralityResult& b, std::size_t num_nodes,
                     std::size_t num_demands) {
  if (a.scores() != b.scores()) return false;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    const auto v = static_cast<graph::NodeId>(n);
    if (a.contributors(v) != b.contributors(v)) return false;
  }
  for (std::size_t h = 0; h < num_demands; ++h) {
    const auto& pa = a.demand_paths(static_cast<int>(h));
    const auto& pb = b.demand_paths(static_cast<int>(h));
    if (pa.total_capacity != pb.total_capacity ||
        pa.capacities != pb.capacities ||
        pa.paths.size() != pb.paths.size()) {
      return false;
    }
    for (std::size_t i = 0; i < pa.paths.size(); ++i) {
      if (pa.paths[i].edges != pb.paths[i].edges) return false;
    }
  }
  return true;
}

bool same_solution(const core::RecoverySolution& a,
                   const core::RecoverySolution& b) {
  return a.repaired_nodes == b.repaired_nodes &&
         a.repaired_edges == b.repaired_edges &&
         a.repair_cost == b.repair_cost &&
         a.satisfied_fraction == b.satisfied_fraction &&
         a.instance_feasible == b.instance_feasible &&
         a.iterations == b.iterations;
}

int run(int argc, char** argv) {
  util::Flags flags;
  bench::declare_common_flags(flags, /*default_runs=*/3);
  flags.define("json", "BENCH_parallel.json",
               "write per-kernel timings, speedups and identity checks here");
  flags.define("nodes", "300", "Erdos-Renyi node count (betweenness + ISP)");
  flags.define("edge-prob", "0.03", "Erdos-Renyi edge probability");
  flags.define("pairs", "8", "demand pairs (centrality + ISP instances)");
  flags.define("flow", "3", "demand flow per pair");
  flags.define("rmat-nodes", "100000", "RMAT node count (betweenness)");
  flags.define("rmat-sources", "24",
               "RMAT betweenness source pivots (all |V| passes would take "
               "hours; the pivot prefix is the kernel's scaling unit)");
  flags.define("isp-runs", "1",
               "ISP end-to-end repetitions per thread count (a full solve "
               "is ~seconds; kernels use --runs)");
  if (!bench::parse_or_usage(flags, argc, argv)) return 0;

  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes"));
  const double edge_prob = flags.get_double("edge-prob");
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs"));
  const double flow = flags.get_double("flow");
  const auto rmat_nodes = static_cast<std::size_t>(flags.get_int("rmat-nodes"));
  const auto rmat_sources =
      static_cast<std::size_t>(flags.get_int("rmat-sources"));
  const int runs = std::max(1, flags.get_int("runs"));
  const int isp_runs = std::max(1, flags.get_int("isp-runs"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  util::Json kernels = util::Json::object();
  bool all_identity_ok = true;
  const auto record = [&](const char* name, const KernelReport& report) {
    print_report(name, report);
    if (!report.identity_ok) all_identity_ok = false;
    kernels.set(name, report.to_json());
  };

  // --- betweenness: ER n=300, all sources -------------------------------
  {
    util::Rng rng(seed);
    topology::ErdosRenyiOptions eopt;
    eopt.nodes = nodes;
    eopt.edge_probability = edge_prob;
    graph::Graph g = topology::make_topology(eopt, rng);
    const graph::GraphView view = graph::GraphView::working(g);
    record("betweenness_er", bench_betweenness(view, 0, runs));
  }

  // --- betweenness: RMAT n=1e5, pivot prefix ----------------------------
  {
    util::Rng rng(seed + 1);
    topology::RmatOptions ropt;
    ropt.nodes = rmat_nodes;
    graph::Graph g = topology::make_topology({ropt}, rng);
    const graph::GraphView view = graph::GraphView::working(g);
    record("betweenness_rmat",
           bench_betweenness(view, rmat_sources, std::max(1, runs / 3)));
  }

  // --- demand-based centrality batch ------------------------------------
  {
    util::Rng rng(seed + 2);
    core::RecoveryProblem problem =
        er_problem(nodes, edge_prob, pairs, flow, rng);
    // Centrality ranks repair candidates on the *full* graph (broken
    // elements included) — ISP's per-iteration configuration.
    graph::ViewConfig config;
    const graph::GraphView view = graph::GraphView::build(problem.graph,
                                                          config);
    const core::CentralityOptions serial_opt;
    const core::CentralityResult reference =
        core::demand_based_centrality(view, problem.demands, serial_opt);

    KernelReport report;
    {
      util::Timer timer;
      for (int r = 0; r < runs; ++r) {
        core::demand_based_centrality(view, problem.demands, serial_opt);
      }
      report.serial_seconds = timer.elapsed_seconds() / runs;
    }
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      core::CentralityOptions parallel_opt = serial_opt;
      parallel_opt.pool = &pool;
      report.thread_seconds.push_back(time_kernel(
          runs, report.identity_ok,
          [&] {
            return core::demand_based_centrality(view, problem.demands,
                                                 parallel_opt);
          },
          [&](const core::CentralityResult& result) {
            return same_centrality(result, reference,
                                   problem.graph.num_nodes(),
                                   problem.demands.size());
          }));
    }
    record("centrality", report);
  }

  // --- ISP end-to-end: concurrent pricing + both kernels in situ -------
  {
    util::Rng rng(seed + 3);
    core::RecoveryProblem problem =
        er_problem(nodes, edge_prob, pairs, flow, rng);
    const core::RecoverySolution reference =
        core::IspSolver(problem, core::IspOptions{}).solve();

    KernelReport report;
    {
      util::Timer timer;
      for (int r = 0; r < isp_runs; ++r) {
        core::IspSolver(problem, core::IspOptions{}).solve();
      }
      report.serial_seconds = timer.elapsed_seconds() / isp_runs;
    }
    for (const std::size_t threads : kThreadCounts) {
      util::ThreadPool pool(threads);
      core::IspOptions options;
      options.pool = &pool;
      report.thread_seconds.push_back(time_kernel(
          isp_runs, report.identity_ok,
          [&] { return core::IspSolver(problem, options).solve(); },
          [&](const core::RecoverySolution& solution) {
            return same_solution(solution, reference);
          }));
    }
    record("isp", report);
  }

  const std::string json_path = flags.get("json");
  if (!json_path.empty()) {
    util::Json out = util::Json::object();
    out.set("bench", "perf_parallel");
    out.set("seed", static_cast<double>(seed));
    out.set("runs", runs);
    out.set("hardware_threads",
            static_cast<double>(std::thread::hardware_concurrency()));
    util::Json thread_counts = util::Json::array();
    for (const std::size_t t : kThreadCounts) {
      thread_counts.push_back(util::Json(static_cast<double>(t)));
    }
    out.set("thread_counts", std::move(thread_counts));
    util::Json config = util::Json::object();
    config.set("nodes", nodes);
    config.set("edge_probability", edge_prob);
    config.set("pairs", pairs);
    config.set("flow", flow);
    config.set("rmat_nodes", rmat_nodes);
    config.set("rmat_sources", rmat_sources);
    out.set("config", std::move(config));
    out.set("kernels", std::move(kernels));
    out.set("identity_ok", all_identity_ok);
    util::write_json_file(json_path, out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::fflush(stdout);
  if (!all_identity_ok) {
    throw std::runtime_error(
        "perf_parallel: a parallel kernel diverged from its serial twin — "
        "timings recorded with identity_ok: false, treat them as "
        "meaningless");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return netrec::bench::main_guard(run, argc, argv);
}
