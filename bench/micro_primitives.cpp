// Micro-benchmarks (google-benchmark) for the primitives ISP leans on:
// Dijkstra under the dynamic metric, Dinic max flow, the demand-based
// centrality pass, the exact routability test, the split LP and a dense
// simplex solve.  These are the per-iteration costs behind Fig. 7(a)'s
// "ISP time is negligible" claim.  BM_FarApartDemands and BM_HopDiameter
// time the set-up side: demand placement on the netrec-bench preloads, and
// (BM_FarApartDemands/2) on a Barabasi-Albert n=10^4 graph.
// BM_JsonParsePlanRequest, BM_CanonicalKeyFingerprint and BM_JsonDumpPayload
// time netrecd's request path on a plan_hot-shaped body.  BM_IspSolveBa2000
// is one plan_scale-shaped solve, and BM_BubbleTestBa2000 the prune step's
// bubble test on the same instance.
#include <benchmark/benchmark.h>

#include "core/bubble.hpp"
#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/traversal.hpp"
#include "graph/view.hpp"
#include "lp/simplex.hpp"
#include "mcf/routing.hpp"
#include "mcf/split.hpp"
#include "scenario/scenario.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "topology/generator.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

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

/// plan_fresh's topology (CAIDA-like seed 1) with 10% of nodes and edges
/// broken, and its eight far-apart demands placed before the damage.
struct DamagedCaida {
  graph::Graph g;
  std::vector<mcf::Demand> demands;
};

const DamagedCaida& damaged_caida() {
  static const DamagedCaida instance = [] {
    DamagedCaida d;
    d.g = topology::make_topology({topology::CaidaLikeOptions{}, 1});
    util::Rng demand_rng(7);
    d.demands = scenario::far_apart_demands(d.g, 8, 10.0, demand_rng);
    util::Rng damage_rng(1000);
    disruption::random_failures(d.g, 0.1, 0.1, damage_rng);
    return d;
  }();
  return instance;
}

void BM_DinicCaida(benchmark::State& state) {
  // ISP's prune flow (Theorem 3): the bubble node_ok overload on the
  // working view, against partly consumed residual capacities.
  const auto& [g, demands] = damaged_caida();
  const auto view = graph::GraphView::working(g);
  std::vector<double> residual = view.edge_capacities();
  for (std::size_t e = 0; e < residual.size(); e += 3) residual[e] *= 0.5;
  const std::vector<char> in_bubble(g.num_nodes(), 1);
  for (auto _ : state) {
    for (const mcf::Demand& d : demands) {
      benchmark::DoNotOptimize(
          graph::max_flow(view, d.source, d.target, residual, in_bubble));
    }
  }
}
BENCHMARK(BM_DinicCaida);

void BM_CentralityCaidaSplit(benchmark::State& state) {
  // ISP's split-phase centrality: metric view of the whole graph (broken
  // elements longer), and demands after splits, so sources repeat and the
  // shared first-path trees are in play.
  const auto& [g, demands] = damaged_caida();
  std::vector<mcf::Demand> split;
  for (std::size_t h = 0; h < demands.size(); ++h) {
    const mcf::Demand& d = demands[h];
    const graph::NodeId via = demands[(h + 4) % demands.size()].target;
    split.push_back({d.source, d.target, d.amount / 2.0});
    split.push_back({d.source, via, d.amount / 2.0});
    split.push_back({via, d.target, d.amount / 2.0});
  }
  graph::ViewConfig config;
  config.length = [&g](graph::EdgeId e) {
    return g.edge_usable(e) ? 1.0 : 5.0;
  };
  const auto view = graph::GraphView::build(g, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::demand_based_centrality(view, split));
  }
}
BENCHMARK(BM_CentralityCaidaSplit);

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
/// session's first master solve) or from the previous basis, repaired
/// where the drift broke it (the persistent-session shape).
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
  lp::Basis basis;
  benchmark::DoNotOptimize(lp::solve(model, {}, &basis));  // prime
  bool flip = false;
  for (auto _ : state) {
    model.constraint(0).rhs = flip ? base * 0.98 : base;
    flip = !flip;
    benchmark::DoNotOptimize(lp::solve(model, {}, &basis));
  }
}
BENCHMARK(BM_SimplexResolveWarm);

/// netrec-bench's preload topologies: CAIDA-like seed 1 (plan_fresh,
/// plan_hot) and Barabási–Albert 2000 seed 1 (plan_scale).
/// The netrec-bench preloads (0: CAIDA-like seed 1, 1: BA-2000 seed 1), and
/// 2: BA-10^4 seed 1, for placement at scale.
const graph::Graph& preload_graph(std::int64_t which) {
  const auto ba = [](std::size_t nodes) {
    topology::BarabasiAlbertOptions options;
    options.nodes = nodes;
    return topology::make_topology({options, 1});
  };
  static const graph::Graph caida_1 =
      topology::make_topology({topology::CaidaLikeOptions{}, 1});
  static const graph::Graph ba_2000 = ba(2000);
  if (which == 0) return caida_1;
  if (which == 1) return ba_2000;
  static const graph::Graph ba_10000 = ba(10000);
  return ba_10000;
}

const char* preload_label(std::int64_t which) {
  return which == 0 ? "caida-825" : which == 1 ? "ba-2000" : "ba-10000";
}

void BM_FarApartDemands(benchmark::State& state) {
  // The preload's demand placement: eight pairs, demand seed 7.
  const auto& g = preload_graph(state.range(0));
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(scenario::far_apart_demands(g, 8, 10.0, rng));
  }
  state.SetLabel(preload_label(state.range(0)));
}
BENCHMARK(BM_FarApartDemands)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_HopDiameter(benchmark::State& state) {
  const auto view = graph::GraphView::build(preload_graph(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::hop_diameter(view));
  }
  state.SetLabel(preload_label(state.range(0)));
}
BENCHMARK(BM_HopDiameter)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The plan_fresh / plan_hot preload (CAIDA-like seed 1, eight pairs, demand
/// seed 7) and a request body shaped like netrec-bench's: 20% of the nodes
/// and edges, ids ascending.
struct ServeInstance {
  core::RecoveryProblem problem;
  std::string body;
};

const ServeInstance& serve_instance() {
  static const ServeInstance instance = [] {
    ServeInstance out;
    out.problem.graph = preload_graph(0);
    util::Rng demand_rng(7);
    out.problem.demands =
        scenario::far_apart_demands(out.problem.graph, 8, 10.0, demand_rng);
    util::Rng rng(0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
    const auto ids = [&rng](std::size_t n) {
      std::vector<std::size_t> drawn =
          rng.sample_without_replacement(n, (n + 2) / 5);
      std::sort(drawn.begin(), drawn.end());
      util::Json out = util::Json::array();
      for (std::size_t id : drawn) out.push_back(id);
      return out;
    };
    util::Json body = util::Json::object();
    body.set("broken_nodes", ids(out.problem.graph.num_nodes()));
    body.set("broken_edges", ids(out.problem.graph.num_edges()));
    out.body = body.dump();
    return out;
  }();
  return instance;
}

void BM_JsonParsePlanRequest(benchmark::State& state) {
  const ServeInstance& in = serve_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::parse_plan_request(util::Json::parse(in.body), in.problem));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.body.size()));
  state.SetLabel(std::to_string(in.body.size()) + "-byte body");
}
BENCHMARK(BM_JsonParsePlanRequest);

void BM_CanonicalKeyFingerprint(benchmark::State& state) {
  const ServeInstance& in = serve_instance();
  const serve::PlanRequest request =
      serve::parse_plan_request(util::Json::parse(in.body), in.problem);
  for (auto _ : state) {
    const std::string key = serve::canonical_key(request);
    benchmark::DoNotOptimize(serve::fingerprint(key));
  }
}
BENCHMARK(BM_CanonicalKeyFingerprint);

void BM_JsonDumpPayload(benchmark::State& state) {
  const ServeInstance& in = serve_instance();
  serve::PlanningEngine engine(in.problem);
  const util::Json payload =
      engine
          .solve(serve::parse_plan_request(util::Json::parse(in.body),
                                           in.problem))
          .payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(payload.dump());
  }
  state.SetLabel(std::to_string(payload.dump().size()) + "-byte payload");
}
BENCHMARK(BM_JsonDumpPayload);

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

/// The plan_scale preload (BA-2000 seed 1, eight pairs, demand seed 7)
/// under the first damage state netrec-bench requests at seed 1: 10% of
/// the nodes and of the edges broken.
const core::RecoveryProblem& damaged_ba2000() {
  static const core::RecoveryProblem instance = [] {
    core::RecoveryProblem p;
    p.graph = preload_graph(1);
    util::Rng demand_rng(7);
    p.demands = scenario::far_apart_demands(p.graph, 8, 10.0, demand_rng);
    util::Rng rng(0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
    const std::size_t nodes = p.graph.num_nodes();
    const std::size_t edges = p.graph.num_edges();
    for (std::size_t n : rng.sample_without_replacement(nodes, nodes / 10)) {
      p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
    }
    for (std::size_t e : rng.sample_without_replacement(edges, edges / 10)) {
      p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
    }
    return p;
  }();
  return instance;
}

void BM_IspSolveBa2000(benchmark::State& state) {
  // As netrecd's plan_scale worker runs it: two solve threads on a pool
  // that outlives the solves.
  const core::RecoveryProblem& p = damaged_ba2000();
  util::ThreadPool pool(2);
  core::IspOptions options;
  options.pool = &pool;
  options.solve_threads = 2;
  for (auto _ : state) {
    core::IspSolver solver(p, options);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_IspSolveBa2000)->Unit(benchmark::kMillisecond);

void BM_BubbleTestBa2000(benchmark::State& state) {
  // ISP's first prune pass on plan_scale: each demand against the other
  // demands' endpoints, on the working view at full capacity.  The hubs
  // reach most of the graph, so a flood-then-check test is graph-sized.
  const core::RecoveryProblem& p = damaged_ba2000();
  const core::RepairState repair(p.graph);
  const auto view = graph::GraphView::build(
      p.graph,
      {.edge_ok = [&repair](graph::EdgeId e) { return repair.edge_ok(e); }});
  const std::vector<double>& residual = view.edge_capacities();
  std::vector<char> endpoint(p.graph.num_nodes(), 0);
  for (const mcf::Demand& d : p.demands) {
    endpoint[static_cast<std::size_t>(d.source)] = 1;
    endpoint[static_cast<std::size_t>(d.target)] = 1;
  }
  core::BubbleWorkspace ws(p.graph.num_nodes());
  for (auto _ : state) {
    for (const mcf::Demand& d : p.demands) {
      benchmark::DoNotOptimize(core::find_bubble(
          view, repair, residual, endpoint, d.source, d.target, true, ws));
    }
  }
}
BENCHMARK(BM_BubbleTestBa2000);

}  // namespace

BENCHMARK_MAIN();
