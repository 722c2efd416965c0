#include "instance.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace netrec;

namespace {

// netrecd's default preload seeds (serve/preload.cpp).
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::uint64_t kDemandSeed = 7;

std::vector<std::int32_t> draw_ids(util::Rng& rng, std::size_t n,
                                   double fraction) {
  const auto k = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(n)));
  std::vector<std::int32_t> ids;
  ids.reserve(k);
  for (std::size_t i : rng.sample_without_replacement(n, std::min(k, n))) {
    ids.push_back(static_cast<std::int32_t>(i));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

util::Json id_array(const std::vector<std::int32_t>& ids) {
  util::Json out = util::Json::array();
  for (std::int32_t id : ids) out.push_back(static_cast<double>(id));
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;

    WorkloadSpec fresh;
    fresh.name = "plan_fresh";
    fresh.family = "caida";
    fresh.damage_fraction = 0.2;
    fresh.clients = 4;
    fresh.workers = 4;
    fresh.solve_threads = 1;
    fresh.warmup_requests = 4;
    fresh.direct_sample = 4;
    fresh.replay_requests = 16;
    out.push_back(fresh);

    WorkloadSpec hot = fresh;
    hot.name = "plan_hot";
    hot.hot_states = 64;
    hot.warmup_requests = 0;
    hot.direct_sample = 8;
    hot.replay_requests = 8;
    out.push_back(hot);

    WorkloadSpec scale;
    scale.name = "plan_scale";
    scale.family = "barabasi_albert";
    scale.nodes = 2000;
    scale.damage_fraction = 0.1;
    scale.clients = 1;
    scale.workers = 1;
    scale.solve_threads = 2;
    scale.warmup_requests = 1;
    scale.direct_sample = 2;
    scale.replay_requests = 8;
    out.push_back(scale);
    return out;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Preload build_preload(const WorkloadSpec& spec, Tracer* tracer,
                      PreloadTimes& times) {
  Preload out;
  {
    Span span(tracer, "setup.topology");
    topology::GeneratorParams params = topology::params_for(spec.family);
    if (auto* ba = std::get_if<topology::BarabasiAlbertOptions>(
            &params.options)) {
      ba->nodes = spec.nodes;
    }
    params.seed = kTopologySeed;
    out.problem.graph = topology::make_topology(params);
    times.topology = span.stop();
  }
  {
    Span span(tracer, "setup.demand_placement");
    util::Rng rng(kDemandSeed);
    out.problem.demands = scenario::far_apart_demands(
        out.problem.graph, spec.pairs, spec.demand, rng);
    times.demand_placement = span.stop();
  }
  {
    Span span(tracer, "setup.feasibility");
    out.feasible = out.problem.demands.size() == spec.pairs &&
                   out.problem.feasible_when_fully_repaired();
    times.feasibility = span.stop();
  }
  return out;
}

PlanInput make_plan_input(const core::RecoveryProblem& problem,
                          const WorkloadSpec& spec, std::uint64_t seed,
                          Stream stream, std::uint64_t index) {
  // Rng seeds through SplitMix64, so a plain mix of the three coordinates
  // gives independent streams.
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                static_cast<std::uint64_t>(stream) * 0xbf58476d1ce4e5b9ULL +
                index);
  PlanInput in;
  in.request.broken_nodes =
      draw_ids(rng, problem.graph.num_nodes(), spec.damage_fraction);
  in.request.broken_edges =
      draw_ids(rng, problem.graph.num_edges(), spec.damage_fraction);

  util::Json body = util::Json::object();
  body.set("broken_nodes", id_array(in.request.broken_nodes));
  body.set("broken_edges", id_array(in.request.broken_edges));
  in.body = body.dump();
  in.fingerprint = serve::fingerprint(in.request);
  return in;
}

std::uint64_t state_index(const WorkloadSpec& spec, std::uint64_t index) {
  return spec.hot_states == 0 ? index : index % spec.hot_states;
}

void apply_damage(core::RecoveryProblem& problem,
                  const serve::PlanRequest& request, bool broken) {
  for (graph::NodeId n : request.broken_nodes) {
    problem.graph.set_node_broken(n, broken);
  }
  for (graph::EdgeId e : request.broken_edges) {
    problem.graph.set_edge_broken(e, broken);
  }
}

}  // namespace perfbench
