// Unified topology generation: one entry point, `make_topology`, that takes
// a family-tagged parameter struct plus a seed (or an existing Rng stream)
// and returns a Graph.  Fig drivers and scenario factories select topologies
// uniformly — by params value or by family name via params_for() — instead
// of hard-wiring one of the ad-hoc free functions.
//
// The scale families (rmat, barabasi_albert) construct through
// graph::Builder — O(1) appends, batch dedup at finalize — and reach 10^6
// nodes (topo_convert --topo rmat; netrec-bench's plan_scale preload is
// Barabasi-Albert).  Their nodes are unnamed and sit at the origin: at a
// million nodes, names and geography are pure overhead, and the scale
// experiments use random (not geographic) failures.  Both use the Graph500
// R-MAT partition probabilities (a, b, c) = (0.57, 0.19, 0.19) and give
// every link capacity 40, the CAIDA-like default.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "topology/topologies.hpp"

namespace netrec::topology {

struct RmatOptions {
  std::size_t nodes = 1024;
  /// Target edge draws = edge_factor * nodes; duplicate draws are discarded
  /// (Graph500 style), so the built edge count lands a little below.
  double edge_factor = 8.0;
};

struct BarabasiAlbertOptions {
  std::size_t nodes = 1024;
  /// Edges added per arriving node (the model's m); nodes > attach required.
  std::size_t attach = 2;
};

/// Family-tagged parameter set; the variant alternative selects the family.
using GeneratorOptions =
    std::variant<BellCanadaOptions, ErdosRenyiOptions, CaidaLikeOptions,
                 RmatOptions, BarabasiAlbertOptions>;

struct GeneratorParams {
  GeneratorOptions options = BellCanadaOptions{};
  std::uint64_t seed = 1;
};

/// The unified generator: params + seed in, Graph out.  Deterministic —
/// identical params produce identical graphs.
graph::Graph make_topology(const GeneratorParams& params);

/// Same, drawing from a caller-owned stream: for scenario factories that
/// thread one Rng through problem construction.
graph::Graph make_topology(const GeneratorOptions& options, util::Rng& rng);

/// Default params for a family name: "bell_canada", "erdos_renyi", "caida",
/// "rmat", "barabasi_albert", or the shorthands "er" and "ba".  Throws
/// std::invalid_argument on unknown.
GeneratorParams params_for(std::string_view family);

namespace detail {
// R-MAT (recursive matrix) graph with heavy-tailed degrees; Barabási–Albert
// preferential attachment, connected by construction.
graph::Graph rmat_impl(const RmatOptions& options, util::Rng& rng);
graph::Graph barabasi_albert_impl(const BarabasiAlbertOptions& options,
                                  util::Rng& rng);
}  // namespace detail

}  // namespace netrec::topology
