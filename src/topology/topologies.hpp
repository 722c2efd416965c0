// Topology suite for the paper's three experiment scenarios (Section VII),
// built through topology::make_topology (topology/generator.hpp).
//
//  * Bell-Canada-like: 48 nodes / 64 edges with geographic coordinates
//    over Canadian cities and the paper's capacity plan — two backbones at
//    50 and 30 units, access links at 20.  The Internet
//    Topology Zoo original is not distributable offline; this synthetic
//    stand-in preserves size, the backbone+access structure and rough
//    planarity (see README, "Where netrec departs from the paper").  Real
//    Topology Zoo GML files load through graph::load_gml_file when
//    available.
//  * Erdős–Rényi: G(n, p) with uniform capacities and node coordinates
//    uniform in [0, 100]^2 (Section VII-B).
//  * CAIDA-like: preferential-attachment AS-style graph trimmed to exactly
//    825 nodes / 1018 edges — the size of CAIDA AS28717's giant component
//    (Section VII-C, a substitution); heavy-tailed degrees, connected by
//    construction.
//
// Every generated node and edge costs detail::kRepairCost = 1 to repair
// (the paper's unit costs), so the repair counts the figures report are
// also repair costs.
#pragma once

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace netrec::topology {

/// Fixed topology: the variant's tag for the family, with nothing to set.
struct BellCanadaOptions {};

struct ErdosRenyiOptions {
  std::size_t nodes = 100;
  double edge_probability = 0.5;
  double capacity = 1000.0;
};

struct CaidaLikeOptions {
  std::size_t nodes = 825;
  std::size_t edges = 1018;
  double capacity = 40.0;
};

namespace detail {
/// Repair cost of every element any family generates.
inline constexpr double kRepairCost = 1.0;


// The family implementations behind make_topology (topology/generator.hpp).
graph::Graph bell_canada_impl();
graph::Graph erdos_renyi_impl(const ErdosRenyiOptions& options,
                              util::Rng& rng);
graph::Graph caida_like_impl(const CaidaLikeOptions& options, util::Rng& rng);
}  // namespace detail

}  // namespace netrec::topology
