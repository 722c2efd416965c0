#include "serve/preload.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/gml.hpp"
#include "graph/ntb.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace netrec::serve {

void declare_preload_flags(util::Flags& flags) {
  flags.define("topology", "bell_canada",
               "generator family (bell_canada|erdos_renyi|caida|rmat|"
               "barabasi_albert) or gml:<path> / ntb:<path>");
  flags.define("topo-seed", "1", "topology generator seed");
  flags.define("pairs", "8", "far-apart demand pairs placed on the topology");
  flags.define("demand", "8", "demand volume per pair");
  flags.define("demand-seed", "7", "demand placement seed");
}

core::RecoveryProblem build_preloaded_problem(const util::Flags& flags) {
  const std::string spec = flags.get("topology");
  core::RecoveryProblem problem;
  if (spec.rfind("gml:", 0) == 0) {
    problem.graph = graph::load_gml_file(spec.substr(4));
  } else if (spec.rfind("ntb:", 0) == 0) {
    problem.graph = graph::load_ntb_file(spec.substr(4));
  } else {
    topology::GeneratorParams params = topology::params_for(spec);
    params.seed = static_cast<std::uint64_t>(flags.get_int("topo-seed"));
    problem.graph = topology::make_topology(params);
  }

  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs"));
  const double demand = flags.get_double("demand");
  if (pairs > 0) {
    util::Rng rng(static_cast<std::uint64_t>(flags.get_int("demand-seed")));
    problem.demands =
        scenario::far_apart_demands(problem.graph, pairs, demand, rng);
  }
  if (!problem.feasible_when_fully_repaired()) {
    throw std::runtime_error(
        "preload " + spec + " is infeasible: " + std::to_string(pairs) +
        " pairs of demand " + flags.get("demand") +
        " cannot all be routed even with every element repaired");
  }
  return problem;
}

std::string describe_preload(const core::RecoveryProblem& problem,
                             const util::Flags& flags) {
  return flags.get("topology") + " seed=" + flags.get("topo-seed") + ", " +
         std::to_string(problem.graph.num_nodes()) + " nodes / " +
         std::to_string(problem.graph.num_edges()) + " edges, " +
         std::to_string(problem.demands.size()) + " demands";
}

}  // namespace netrec::serve
