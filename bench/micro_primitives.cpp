// Micro-benchmarks (google-benchmark) for the primitives ISP leans on:
// Dijkstra under the dynamic metric, Dinic max flow, the demand-based
// centrality pass, the exact routability test, the split LP and a dense
// simplex solve.  These are the per-iteration costs behind Fig. 7(a)'s
// "ISP time is negligible" claim.
#include <benchmark/benchmark.h>

#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/view.hpp"
#include "lp/simplex.hpp"
#include "mcf/routing.hpp"
#include "mcf/split.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"

namespace {

using namespace netrec;

const graph::Graph& bell() {
  static const graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  return g;
}

const graph::Graph& caida() {
  static const graph::Graph g = [] {
    util::Rng rng(77);
    return topology::make_topology(topology::CaidaLikeOptions{}, rng);
  }();
  return g;
}

std::vector<mcf::Demand> demands_for(const graph::Graph& g, std::size_t n,
                                     double amount) {
  util::Rng rng(123);
  return scenario::far_apart_demands(g, n, amount, rng);
}

void BM_DijkstraBell(benchmark::State& state) {
  const auto& g = bell();
  graph::ViewConfig config;
  config.length = [](graph::EdgeId) { return 1.0; };
  const auto view = graph::GraphView::build(g, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(view, 0));
  }
}
BENCHMARK(BM_DijkstraBell);

void BM_DijkstraCaida(benchmark::State& state) {
  const auto& g = caida();
  graph::ViewConfig config;
  config.length = [](graph::EdgeId) { return 1.0; };
  const auto view = graph::GraphView::build(g, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(view, 0));
  }
}
BENCHMARK(BM_DijkstraCaida);

void BM_DinicBell(benchmark::State& state) {
  const auto& g = bell();
  const auto view = graph::GraphView::build(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(
        view, 0, static_cast<graph::NodeId>(g.num_nodes() - 3)));
  }
}
BENCHMARK(BM_DinicBell);

void BM_CentralityBell(benchmark::State& state) {
  const auto& g = bell();
  const auto demands = demands_for(g, 4, 10.0);
  graph::ViewConfig config;
  config.length = [](graph::EdgeId) { return 1.0; };
  const auto view = graph::GraphView::build(g, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::demand_based_centrality(view, demands));
  }
}
BENCHMARK(BM_CentralityBell);

void BM_RoutabilityBell(benchmark::State& state) {
  const auto& g = bell();
  const auto demands = demands_for(g, 4, 10.0);
  for (auto _ : state) {
    // One view per probe, as the one-shot callers build it.
    benchmark::DoNotOptimize(
        mcf::is_routable(graph::GraphView::build(g), demands));
  }
}
BENCHMARK(BM_RoutabilityBell);

void BM_RoutabilityCaida(benchmark::State& state) {
  const auto& g = caida();
  const auto demands = demands_for(g, 4, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mcf::is_routable(graph::GraphView::build(g), demands));
  }
}
BENCHMARK(BM_RoutabilityCaida);

void BM_SplitLpBell(benchmark::State& state) {
  // One cold probe per iteration: a fresh session, as ISP's first probe.
  const auto& g = bell();
  const auto specs = mcf::indexed_specs(demands_for(g, 4, 10.0));
  const auto view = graph::GraphView::build(g);
  for (auto _ : state) {
    mcf::PathLpSession session(g, mcf::PathLpMode::kMaxSplit);
    benchmark::DoNotOptimize(
        mcf::max_splittable_amount(session, view, specs, 0, 19));
  }
}
BENCHMARK(BM_SplitLpBell);

void BM_SimplexDense(benchmark::State& state) {
  // A 60-row, 120-column random-ish LP representative of the masters.
  lp::Model model;
  util::Rng rng(9);
  const int rows = 60;
  const int cols = 120;
  for (int r = 0; r < rows; ++r) {
    model.add_constraint(lp::Sense::kLessEqual, rng.uniform(5.0, 20.0));
  }
  for (int c = 0; c < cols; ++c) {
    const int v =
        model.add_variable(0.0, lp::kInfinity, -rng.uniform(0.1, 1.0));
    for (int r = 0; r < rows; ++r) {
      if (rng.chance(0.15)) model.set_coefficient(r, v, rng.uniform(0.1, 2.0));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(model));
  }
}
BENCHMARK(BM_SimplexDense);

/// The PathLpSession re-solve kernel: a master whose rhs drifts a little
/// between solves (a few percent, the shape of residual consumption),
/// re-solved either from scratch (cold, the shape of a fresh one-use
/// session's first master solve) or from the previous basis with
/// warm_append repairs (the persistent-session shape).
/// Same model sequence in both, so the timing difference is pure
/// warm-start value (~1 pivot per warm re-solve vs a full two-phase
/// cold solve; large drifts erase the advantage, which is the point of
/// invalidating precisely).
lp::Model resolve_model() {
  lp::Model model;
  util::Rng rng(11);
  const int rows = 60;
  const int cols = 120;
  for (int r = 0; r < rows; ++r) {
    model.add_constraint(lp::Sense::kLessEqual, rng.uniform(5.0, 20.0));
  }
  for (int c = 0; c < cols; ++c) {
    const int v =
        model.add_variable(0.0, lp::kInfinity, -rng.uniform(0.1, 1.0));
    for (int r = 0; r < rows; ++r) {
      if (rng.chance(0.15)) model.set_coefficient(r, v, rng.uniform(0.1, 2.0));
    }
  }
  return model;
}

void BM_SimplexResolveCold(benchmark::State& state) {
  lp::Model model = resolve_model();
  const double base = model.constraint(0).rhs;
  bool flip = false;
  for (auto _ : state) {
    model.constraint(0).rhs = flip ? base * 0.98 : base;
    flip = !flip;
    benchmark::DoNotOptimize(lp::solve(model));
  }
}
BENCHMARK(BM_SimplexResolveCold);

void BM_SimplexResolveWarm(benchmark::State& state) {
  lp::Model model = resolve_model();
  const double base = model.constraint(0).rhs;
  lp::SolveOptions options;
  options.warm_append = true;
  lp::Basis basis;
  benchmark::DoNotOptimize(lp::solve(model, options, &basis));  // prime
  bool flip = false;
  for (auto _ : state) {
    model.constraint(0).rhs = flip ? base * 0.98 : base;
    flip = !flip;
    benchmark::DoNotOptimize(lp::solve(model, options, &basis));
  }
}
BENCHMARK(BM_SimplexResolveWarm);

void BM_IspBellComplete(benchmark::State& state) {
  core::RecoveryProblem p;
  p.graph = bell();
  p.demands = demands_for(p.graph, 4, 10.0);
  disruption::complete_destruction(p.graph);
  for (auto _ : state) {
    core::IspSolver solver(p);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_IspBellComplete);

}  // namespace

BENCHMARK_MAIN();
