// Thread-invariance differential suites for the intra-solve parallel
// kernels: the batched per-demand centrality enumeration, the session's
// concurrent LP seeding and pricing, and the ISP solve whose split-phase
// full-view flows and watchdog gap scan fan out too — each pinned bitwise
// against its serial twin at thread counts {1, 2, 4, 8}, plus a
// Timeline-level end-to-end pin (the full restoration curve must not move
// by a bit when the measurement LP prices in parallel).
//
// The determinism contract under test: every parallel kernel computes
// per-task results into pre-assigned slots and merges them serially in a
// fixed order, so the stream of floating-point operations that produces
// the output is the serial kernel's stream — equality is exact, never
// tolerance-based.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "golden.hpp"
#include "graph/maxflow.hpp"
#include "graph/view.hpp"
#include "mcf/path_lp_session.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netrec;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

using test::bell_canada_scenario;
using test::er_scenario;

// --- ThreadPool: chunked overload + nesting (satellite coverage) -----------

TEST(ThreadPoolChunked, CoversEveryIndexOnceAtAnyGrain) {
  util::ThreadPool pool(3);
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    std::vector<int> hits(257, 0);
    pool.parallel_for(hits.size(), grain,
                      [&hits](std::size_t i) { hits[i] += 1; });
    for (const int h : hits) ASSERT_EQ(h, 1) << "grain " << grain;
  }
}

TEST(ThreadPoolChunked, PropagatesExceptionsSkippingOnlyTheFailedChunkTail) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(100, 8,
                                 [&completed](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                   completed.fetch_add(1);
                                 }),
               std::runtime_error);
  // The throwing chunk covers [8, 16): 14 and 15 are skipped with 13,
  // every other chunk still runs to completion.
  EXPECT_EQ(completed.load(), 97);
}

TEST(ThreadPoolChunked, PerElementOverloadStillRethrows) {
  // ThreadPool::for_each, the per-element entry point of every intra-solve
  // fan-out, keeps parallel_for's rethrow contract on a pool.
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  const auto fn = [&completed](std::size_t i) {
    if (i == 7) throw std::runtime_error("boom");
    completed.fetch_add(1);
  };
  EXPECT_THROW(util::ThreadPool::for_each(&pool, 16, fn), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPoolNesting, NestedParallelForDoesNotDeadlock) {
  // A parallel kernel invoked from a task that itself runs on the pool —
  // exactly what happens when a scenario-engine solve task reaches a
  // parallel intra-solve kernel on a shared pool.  The caller help-drains
  // the queue, so even a single-worker pool completes.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    util::ThreadPool pool(workers);
    std::atomic<int> counter{0};
    pool.parallel_for(4, 1, [&](std::size_t) {
      pool.parallel_for(8, 3, [&](std::size_t) { counter.fetch_add(1); });
    });
    EXPECT_EQ(counter.load(), 32) << "workers " << workers;
  }
}

// --- batched demand-based centrality ---------------------------------------

void expect_centrality_thread_invariant(
    const graph::GraphView& view, const std::vector<mcf::Demand>& demands,
    const std::string& label) {
  SCOPED_TRACE(label);
  const graph::Graph& g = view.graph();
  const core::CentralityResult serial =
      core::demand_based_centrality(view, demands);
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    const core::CentralityResult parallel =
        core::demand_based_centrality(view, demands, &pool);
    ASSERT_EQ(parallel.scores(), serial.scores()) << "threads " << threads;
    for (std::size_t n = 0; n < g.num_nodes(); ++n) {
      const auto id = static_cast<graph::NodeId>(n);
      ASSERT_EQ(parallel.contributors(id), serial.contributors(id))
          << "threads " << threads << " node " << n;
    }
    for (std::size_t h = 0; h < demands.size(); ++h) {
      const auto& a = parallel.demand_paths(static_cast<int>(h));
      const auto& b = serial.demand_paths(static_cast<int>(h));
      ASSERT_EQ(a.capacities, b.capacities) << "threads " << threads;
      ASSERT_EQ(a.total_capacity, b.total_capacity) << "threads " << threads;
      ASSERT_EQ(a.paths.size(), b.paths.size()) << "threads " << threads;
      for (std::size_t k = 0; k < a.paths.size(); ++k) {
        ASSERT_EQ(a.paths[k].edges, b.paths[k].edges)
            << "threads " << threads << " demand " << h << " path " << k;
      }
    }
  }
}

/// The full graph under its static capacities.
graph::GraphView capacity_view(const graph::Graph& g) {
  graph::ViewConfig config;
  config.capacity = [&g](graph::EdgeId e) { return g.edge_capacity(e); };
  return graph::GraphView::build(g, config);
}

class CentralityThreads : public ::testing::TestWithParam<int> {};

TEST_P(CentralityThreads, BitIdenticalAtAnyThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::RecoveryProblem er = er_scenario(seed);
  expect_centrality_thread_invariant(capacity_view(er.graph), er.demands,
                                     "er seed " + std::to_string(seed));
  const core::RecoveryProblem bc = bell_canada_scenario(seed);
  expect_centrality_thread_invariant(
      capacity_view(bc.graph), bc.demands,
      "bell-canada seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentralityThreads, ::testing::Range(1, 5));

// Split demands share sources, so the shared first-path trees (stopped at
// each source's target set) are built on the pool's workers.
TEST(CentralityThreadsCaida, SplitDemandsBitIdenticalAtAnyThreadCount) {
  const core::RecoveryProblem p = test::caida_lazy_scenario(1);
  expect_centrality_thread_invariant(test::centrality_view(p.graph),
                                     test::split_demands(p.demands),
                                     "caida split demands");
}

// --- max flow: per-thread Dinic workspaces ----------------------------------

// Pool workers alternate flows on the CAIDA-like working and full views
// with flows on a 3-node view, so every worker's workspace is reused across
// graph sizes; each result must equal the same flow computed on a fresh
// thread.
TEST(MaxflowWorkspaces, InterleavedOnPoolWorkersMatchIsolatedCalls) {
  const core::RecoveryProblem p = test::caida_lazy_scenario(1);
  const graph::GraphView working = graph::GraphView::working(p.graph);
  const graph::GraphView full = graph::GraphView::build(p.graph);
  const graph::Graph small = test::small_flow_graph();
  const graph::GraphView small_view = graph::GraphView::build(small);
  const auto flow = [&](std::size_t i) {
    if (i % 2 == 1) return graph::max_flow(small_view, 0, 2);
    const mcf::Demand& d = p.demands[(i / 4) % p.demands.size()];
    return graph::max_flow(i % 4 == 0 ? working : full, d.source, d.target);
  };
  constexpr std::size_t kCalls = 64;
  std::vector<std::string> isolated(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    std::thread([&, i] { isolated[i] = test::flow_bits(flow(i)); }).join();
  }
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    std::vector<std::string> pooled(kCalls);
    pool.parallel_for(kCalls, 1, [&](std::size_t i) {
      pooled[i] = test::flow_bits(flow(i));
    });
    for (std::size_t i = 0; i < kCalls; ++i) {
      EXPECT_EQ(pooled[i], isolated[i]) << "threads " << threads << " call "
                                        << i;
    }
  }
}

// --- LP seeding: fresh pairs enumerated on the pool ------------------------

/// Barabasi-Albert with 300 nodes, eight far-apart pairs of 10 units and
/// 10% of the nodes and edges broken: a small plan_scale.  Its hubs make
/// ISP split repeatedly and fire the watchdog, so the solve runs every
/// fan-out — centrality, LP seeding and pricing, the split phase's
/// full-view flows and the watchdog's per-demand gap scan.
core::RecoveryProblem ba_scenario(std::uint64_t seed) {
  core::RecoveryProblem p;
  topology::BarabasiAlbertOptions ba;
  ba.nodes = 300;
  p.graph = topology::make_topology({ba, seed});
  util::Rng rng(seed);
  p.demands = scenario::far_apart_demands(p.graph, 8, 10.0, rng);
  return test::damaged(std::move(p), 0.1, seed, 0);
}

void expect_same_stats(const mcf::PathLpSession::Stats& a,
                       const mcf::PathLpSession::Stats& b) {
  EXPECT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.columns_installed, b.columns_installed);
  EXPECT_EQ(a.columns_reused, b.columns_reused);
  EXPECT_EQ(a.columns_deactivated, b.columns_deactivated);
  EXPECT_EQ(a.duplicates_skipped, b.duplicates_skipped);
  EXPECT_EQ(a.seed_runs, b.seed_runs);
  EXPECT_EQ(a.resets, b.resets);
}

void expect_same_result(const mcf::PathLpResult& a,
                        const mcf::PathLpResult& b) {
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.routing.routed, b.routing.routed);
  ASSERT_EQ(a.routing.flows.size(), b.routing.flows.size());
  for (std::size_t f = 0; f < a.routing.flows.size(); ++f) {
    EXPECT_EQ(a.routing.flows[f].demand_index,
              b.routing.flows[f].demand_index);
    EXPECT_EQ(a.routing.flows[f].path.edges, b.routing.flows[f].path.edges);
    EXPECT_EQ(a.routing.flows[f].amount, b.routing.flows[f].amount);
  }
}

// A first solve seeds every pair at once: eight fresh pairs plus a repeated
// pair that must reuse the first one's seeds, and a split probe adds its two
// half pairs.  On the working view some pairs are cut off by the damage,
// and their empty enumerations count as seed runs too; on the intact view
// every pair enumerates paths.  Pool indices and column order decide the
// simplex trajectory, so every counter and every flow must match the
// serial run.
TEST(PathLpSeedThreads, FirstSolveSeedsMatchSerialSession) {
  const core::RecoveryProblem p = ba_scenario(1);
  std::vector<mcf::Demand> demands = p.demands;
  demands.push_back(demands.front());
  const auto specs = mcf::indexed_specs(demands);
  const graph::NodeId via = p.graph.edge_endpoints(0).first;

  const auto run = [&](const graph::GraphView& view,
                       util::ThreadPool* pool) {
    mcf::PathLpSession routed(p.graph, mcf::PathLpMode::kMaxRouted);
    routed.set_thread_pool(pool);
    const mcf::PathLpResult routed_result = routed.solve(view, specs);
    mcf::PathLpSession split(p.graph, mcf::PathLpMode::kMaxSplit);
    split.set_thread_pool(pool);
    const mcf::PathLpResult split_result =
        split.solve_split(view, specs, 0, via);
    return std::make_tuple(routed.stats(), routed_result, split.stats(),
                           split_result);
  };
  const graph::GraphView working = graph::GraphView::working(p.graph);
  const graph::GraphView intact = capacity_view(p.graph);
  for (const graph::GraphView* view : {&working, &intact}) {
    SCOPED_TRACE(view == &working ? "working view" : "intact view");
    const auto [routed_stats, routed_ref, split_stats, split_ref] =
        run(*view, nullptr);
    EXPECT_GE(routed_stats.seed_runs, demands.size() - 1);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      util::ThreadPool pool(threads);
      const auto [rs, rr, ss, sr] = run(*view, &pool);
      expect_same_stats(rs, routed_stats);
      expect_same_result(rr, routed_ref);
      expect_same_stats(ss, split_stats);
      expect_same_result(sr, split_ref);
    }
  }
}

// --- ISP end-to-end: concurrent LP pricing + all kernels combined ----------

/// One serial reference solve, then one solve per thread count — repair
/// sequences, counters, referee routing and the traced event stream all
/// exactly equal (the golden corpus's record of a solve).
void expect_isp_thread_invariant(const core::RecoveryProblem& problem,
                                 core::IspOptions options,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  const std::string reference = test::isp_record(problem, options);
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    options.pool = &pool;
    EXPECT_EQ(test::isp_record(problem, options), reference)
        << "threads " << threads;
  }
}

class IspThreadsEr : public ::testing::TestWithParam<int> {};

TEST_P(IspThreadsEr, SolveBitIdenticalAtAnyThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_isp_thread_invariant(er_scenario(seed), core::IspOptions{},
                              "er seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspThreadsEr, ::testing::Range(1, 9));

class IspThreadsBa : public ::testing::TestWithParam<int> {};

TEST_P(IspThreadsBa, WatchdogSolveBitIdenticalAtAnyThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::RecoveryProblem problem = ba_scenario(seed);
  core::IspSolver serial(problem, core::IspOptions{});
  serial.solve();
  // Keeps the instance exercising the split phase and the gap scan.
  EXPECT_GT(serial.stats().watchdog_activations, 0u);
  EXPECT_GE(serial.stats().splits, 2u);
  expect_isp_thread_invariant(problem, core::IspOptions{},
                              "ba seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspThreadsBa, ::testing::Range(1, 5));

class IspThreadsBellCanada : public ::testing::TestWithParam<int> {};

TEST_P(IspThreadsBellCanada, SolveBitIdenticalAtAnyThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  expect_isp_thread_invariant(bell_canada_scenario(seed), core::IspOptions{},
                              "bell-canada seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IspThreadsBellCanada, ::testing::Range(1, 6));

TEST(IspThreadsOptions, VariantEnginePathsStayThreadInvariant) {
  // The kernels sit behind different engine paths depending on options:
  // classic betweenness ranks by serial Brandes while the centrality path
  // sets and LP pricing still fan out, and the CAIDA-like graph (1018 edges, above the 160-edge eager threshold) runs
  // the LP with lazy capacity rows.  Each must be thread-invariant.
  {
    core::IspOptions o;
    o.use_classic_betweenness = true;
    expect_isp_thread_invariant(er_scenario(301), o, "classic-betweenness");
  }
  expect_isp_thread_invariant(test::caida_lazy_scenario(1),
                              core::IspOptions{}, "lp-lazy-rows");
}

TEST(IspThreads, OwnedPoolMatchesBorrowedPool) {
  // solve_threads spawns a private pool; the result must match both the
  // serial reference and a caller-lent pool of the same width.
  const core::RecoveryProblem problem = er_scenario(305);
  core::IspSolver serial(problem, core::IspOptions{});
  const core::RecoverySolution ref = serial.solve();

  core::IspOptions owned;
  owned.solve_threads = 4;
  core::IspSolver owned_solver(problem, owned);
  const core::RecoverySolution via_owned = owned_solver.solve();
  EXPECT_EQ(via_owned.repaired_nodes, ref.repaired_nodes);
  EXPECT_EQ(via_owned.repaired_edges, ref.repaired_edges);
  EXPECT_EQ(via_owned.satisfied_fraction, ref.satisfied_fraction);
  EXPECT_EQ(via_owned.repair_cost, ref.repair_cost);
}

// --- Timeline end-to-end: restoration curve at any thread count ------------

recovery::TimelineResult run_timeline(const core::RecoveryProblem& problem,
                                      util::ThreadPool* pool) {
  core::IspOptions isp;
  isp.pool = pool;  // policy re-plans with parallel kernels too
  recovery::ReplanPolicy policy(isp);
  disruption::AftershockOptions aopt;
  aopt.first.variance = 40.0;
  aopt.decay = 0.5;
  aopt.max_shocks = 3;
  recovery::AftershockDynamics dynamics(aopt);
  recovery::TimelineOptions topt;
  topt.max_stages = 12;
  topt.stage_budget = 2;
  topt.pool = pool;
  util::Rng rng(7);
  return recovery::Timeline(problem, policy, dynamics, topt).run(rng);
}

void expect_same_timeline(const recovery::TimelineResult& parallel,
                          const recovery::TimelineResult& reference) {
  EXPECT_EQ(parallel.initial_routed, reference.initial_routed);
  EXPECT_EQ(parallel.final_routed, reference.final_routed);
  EXPECT_EQ(parallel.total_repairs, reference.total_repairs);
  EXPECT_EQ(parallel.total_repair_cost, reference.total_repair_cost);
  EXPECT_EQ(parallel.shock_breaks, reference.shock_breaks);
  ASSERT_EQ(parallel.stages.size(), reference.stages.size());
  for (std::size_t s = 0; s < parallel.stages.size(); ++s) {
    const auto& a = parallel.stages[s];
    const auto& b = reference.stages[s];
    SCOPED_TRACE("stage " + std::to_string(s));
    EXPECT_EQ(a.routed_end, b.routed_end);
    EXPECT_EQ(a.repair_cost, b.repair_cost);
    ASSERT_EQ(a.repairs.size(), b.repairs.size());
    for (std::size_t r = 0; r < a.repairs.size(); ++r) {
      EXPECT_EQ(a.repairs[r].is_node, b.repairs[r].is_node);
      EXPECT_EQ(a.repairs[r].node, b.repairs[r].node);
      EXPECT_EQ(a.repairs[r].edge, b.repairs[r].edge);
      // The intra-stage curve, exact.
      EXPECT_EQ(a.repairs[r].restored_after, b.repairs[r].restored_after);
    }
    EXPECT_EQ(a.shock.total(), b.shock.total());
  }
}

class TimelineThreads : public ::testing::TestWithParam<int> {};

TEST_P(TimelineThreads, RestorationCurveBitIdenticalAtAnyThreadCount) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const core::RecoveryProblem problem =
      seed % 2 == 0 ? bell_canada_scenario(seed) : er_scenario(seed);
  const recovery::TimelineResult reference =
      run_timeline(problem, nullptr);
  for (const std::size_t threads : kThreadCounts) {
    util::ThreadPool pool(threads);
    SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                 std::to_string(threads));
    expect_same_timeline(run_timeline(problem, &pool), reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineThreads, ::testing::Range(1, 4));

}  // namespace
