#include "topology/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"

namespace netrec::topology {

namespace {

/// RMAT's recursive-partition probabilities (the Graph500 defaults;
/// d = 1 - a - b - c = 0.05).
constexpr double kRmatA = 0.57;
constexpr double kRmatB = 0.19;
constexpr double kRmatC = 0.19;
/// Uniform link capacity of the scale families (RMAT, Barabasi-Albert).
constexpr double kScaleCapacity = 40.0;

}  // namespace

namespace detail {

graph::Graph rmat_impl(const RmatOptions& options, util::Rng& rng) {
  if (options.nodes < 2) {
    throw std::invalid_argument("rmat: need at least 2 nodes");
  }
  const std::size_t n = options.nodes;
  // Smallest power-of-two quadrant grid covering n; draws landing outside
  // [0, n) are rejected so any n works, not just powers of two.
  std::size_t top_bit = 1;
  while (top_bit < n) top_bit <<= 1;
  top_bit >>= 1;

  const auto target =
      static_cast<std::size_t>(options.edge_factor *
                               static_cast<double>(n));
  const double ab = kRmatA + kRmatB;
  const double abc = ab + kRmatC;

  // Draw undirected pairs as packed min<<32|max keys, then sort+unique:
  // the Graph500 idiom — duplicates of a skewed draw are discarded rather
  // than probed per insert.
  std::vector<std::uint64_t> keys;
  keys.reserve(target);
  for (std::size_t k = 0; k < target; ++k) {
    std::size_t u = 0;
    std::size_t v = 0;
    for (std::size_t bit = top_bit; bit > 0; bit >>= 1) {
      const double r = rng.uniform();
      if (r < kRmatA) {
        // top-left: neither bit set
      } else if (r < ab) {
        v |= bit;
      } else if (r < abc) {
        u |= bit;
      } else {
        u |= bit;
        v |= bit;
      }
    }
    if (u >= n || v >= n || u == v) continue;  // rejected draw
    const std::uint64_t lo = std::min(u, v);
    const std::uint64_t hi = std::max(u, v);
    keys.push_back(lo << 32 | hi);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Hub-first node relabeling: RMAT ids carry no meaning, and its skewed
  // degrees profit most from the locality.
  graph::Builder builder(graph::Builder::Options{.degree_order = true});
  builder.reserve(n, keys.size());
  builder.add_nodes(n, kRepairCost);
  for (const std::uint64_t key : keys) {
    builder.add_edge(static_cast<graph::NodeId>(key >> 32),
                     static_cast<graph::NodeId>(key & 0xffffffffu),
                     kScaleCapacity, kRepairCost);
  }
  return builder.finalize();
}

graph::Graph barabasi_albert_impl(const BarabasiAlbertOptions& options,
                                  util::Rng& rng) {
  if (options.attach == 0) {
    throw std::invalid_argument("barabasi_albert: attach must be >= 1");
  }
  if (options.nodes <= options.attach) {
    throw std::invalid_argument("barabasi_albert: need nodes > attach");
  }
  const std::size_t n = options.nodes;
  const std::size_t m = options.attach;

  graph::Builder builder;
  builder.reserve(n, m * n);
  builder.add_nodes(n, kRepairCost);

  // Seed core: a path over the first m+1 nodes keeps the graph connected
  // and gives every early node nonzero degree in the attachment pool.
  std::vector<graph::NodeId> pool;  // node id repeated once per degree
  pool.reserve(2 * m * n);
  for (std::size_t i = 1; i <= m; ++i) {
    builder.add_edge(static_cast<graph::NodeId>(i - 1),
                     static_cast<graph::NodeId>(i), kScaleCapacity,
                     kRepairCost);
    pool.push_back(static_cast<graph::NodeId>(i - 1));
    pool.push_back(static_cast<graph::NodeId>(i));
  }

  std::vector<graph::NodeId> picked;
  picked.reserve(m);
  for (std::size_t i = m + 1; i < n; ++i) {
    const auto node = static_cast<graph::NodeId>(i);
    picked.clear();
    std::size_t guard = 0;
    while (picked.size() < m && guard++ < 100 * m) {
      const graph::NodeId target = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      if (std::find(picked.begin(), picked.end(), target) != picked.end()) {
        continue;  // already attached this round
      }
      picked.push_back(target);
    }
    // Pathological pools (tiny m+1 cores) can starve the sampler; fall back
    // to the lowest ids not yet picked so every node attaches m times.
    for (graph::NodeId fallback = 0; picked.size() < m; ++fallback) {
      if (fallback == node) continue;
      if (std::find(picked.begin(), picked.end(), fallback) ==
          picked.end()) {
        picked.push_back(fallback);
      }
    }
    for (const graph::NodeId target : picked) {
      builder.add_edge(node, target, kScaleCapacity, kRepairCost);
      pool.push_back(node);
      pool.push_back(target);
    }
  }
  return builder.finalize();
}

}  // namespace detail

graph::Graph make_topology(const GeneratorOptions& options, util::Rng& rng) {
  return std::visit(
      [&rng](const auto& opt) -> graph::Graph {
        using T = std::decay_t<decltype(opt)>;
        if constexpr (std::is_same_v<T, BellCanadaOptions>) {
          return detail::bell_canada_impl();
        } else if constexpr (std::is_same_v<T, ErdosRenyiOptions>) {
          return detail::erdos_renyi_impl(opt, rng);
        } else if constexpr (std::is_same_v<T, CaidaLikeOptions>) {
          return detail::caida_like_impl(opt, rng);
        } else if constexpr (std::is_same_v<T, RmatOptions>) {
          return detail::rmat_impl(opt, rng);
        } else {
          return detail::barabasi_albert_impl(opt, rng);
        }
      },
      options);
}

graph::Graph make_topology(const GeneratorParams& params) {
  util::Rng rng(params.seed);
  return make_topology(params.options, rng);
}

GeneratorParams params_for(std::string_view family) {
  GeneratorParams params;
  if (family == "bell_canada") {
    params.options = BellCanadaOptions{};
  } else if (family == "erdos_renyi" || family == "er") {
    params.options = ErdosRenyiOptions{};
  } else if (family == "caida") {
    params.options = CaidaLikeOptions{};
  } else if (family == "rmat") {
    params.options = RmatOptions{};
  } else if (family == "barabasi_albert" || family == "ba") {
    params.options = BarabasiAlbertOptions{};
  } else {
    throw std::invalid_argument("unknown topology family: " +
                                std::string(family));
  }
  return params;
}

}  // namespace netrec::topology
