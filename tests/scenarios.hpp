// Seeded broken recovery instances shared by the ISP, Timeline and
// thread-invariance suites and by the golden corpus: one construction per
// family, so every suite (and every frozen record) talks about the same
// instance for the same seed.
#pragma once

#include <cstdint>

#include "core/problem.hpp"
#include "disruption/disruption.hpp"
#include "graph/traversal.hpp"
#include "scenario/scenario.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace netrec::test {

/// Broken connected-ish ER instance with far-apart demands.
inline core::RecoveryProblem er_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 104729 + 13);
  core::RecoveryProblem p;
  topology::ErdosRenyiOptions eopt;
  eopt.nodes = 24;
  eopt.edge_probability = 0.18;
  eopt.capacity = 10.0;
  std::size_t attempts = 0;
  do {
    p.graph = topology::make_topology(eopt, rng);
  } while (graph::hop_diameter(graph::GraphView::build(p.graph)) < 0 &&
           ++attempts < 50);
  util::Rng demand_rng = rng.fork();
  p.demands = scenario::far_apart_demands(p.graph, 3, 4.0, demand_rng);
  // Heavy but not complete destruction, so prune bubbles exist.
  for (std::size_t n = 0; n < p.graph.num_nodes(); ++n) {
    if (rng.chance(0.55)) {
      p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
    }
  }
  for (std::size_t e = 0; e < p.graph.num_edges(); ++e) {
    if (rng.chance(0.6)) {
      p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
    }
  }
  return p;
}

/// Bell-Canada under regional (odd seeds) or complete (even seeds)
/// destruction.
inline core::RecoveryProblem bell_canada_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 7907 + 5);
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng demand_rng = rng.fork();
  p.demands = scenario::far_apart_demands(p.graph, 4, 3.0, demand_rng);
  if (seed % 2 == 0) {
    disruption::complete_destruction(p.graph);
  } else {
    for (std::size_t n = 0; n < p.graph.num_nodes(); ++n) {
      if (rng.chance(0.5)) {
        p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
      }
    }
    for (std::size_t e = 0; e < p.graph.num_edges(); ++e) {
      if (rng.chance(0.5)) {
        p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
      }
    }
  }
  return p;
}

}  // namespace netrec::test
