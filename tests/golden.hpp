// Golden corpora: frozen reference outputs of ISP, the graph kernels, the
// staged-recovery Timeline, the path-LP consumers and netrecd's request
// path, stored as text records under tests/golden/.
//
// Each corpus file is a list of records
//
//   record <key>
//   <field> <values...>
//   ...
//   end
//
// with every floating-point value written as a C99 hex-float (%a), so a
// record either matches bit for bit or not at all.  Long outputs (shortest
// path trees, ISP event streams) are folded into FNV-1a-64 digests.  The
// suites recompute a record and compare it with the committed one
// (expect_golden); tests/golden_record.cpp rewrites every file from the
// current build after an intentional behaviour change — see the header
// comment of each corpus file.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/isp.hpp"
#include "disruption/disruption.hpp"
#include "graph/betweenness.hpp"
#include "graph/builder.hpp"
#include "graph/dijkstra.hpp"
#include "graph/gml.hpp"
#include "graph/maxflow.hpp"
#include "graph/simple_paths.hpp"
#include "graph/traversal.hpp"
#include "heuristics/schedule.hpp"
#include "mcf/broken_usage.hpp"
#include "mcf/routing.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "referees.hpp"
#include "scenarios.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace netrec::test {

inline constexpr const char* kIspCorpus = "isp_corpus.txt";
inline constexpr const char* kGraphKernels = "graph_kernels.txt";
inline constexpr const char* kTimelineRestoration =
    "timeline_restoration.txt";
inline constexpr const char* kLpCorpus = "lp_corpus.txt";
inline constexpr const char* kServeCorpus = "serve_corpus.txt";

// --- record formatting -------------------------------------------------------

inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over 64-bit words, fed byte by byte (little-endian order).
class Fnv1a64 {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add_id(std::int64_t id) { add(static_cast<std::uint64_t>(id)); }
  /// Length word, then one word per byte.
  void add_text(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::string str() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <class T>
std::string join_ids(const std::vector<T>& ids) {
  std::string out;
  for (const T& id : ids) out += " " + std::to_string(id);
  return out;
}

inline std::string join_hex(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += " " + hex(v);
  return out;
}

/// Nine significant digits: equal across LP vertices of the same optimum.
inline std::string sig9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// --- golden files ------------------------------------------------------------

inline std::string golden_path(const std::string& file) {
  return std::string(NETREC_GOLDEN_DIR) + "/" + file;
}

/// key -> record body (the lines between `record <key>` and `end`, each
/// newline-terminated); loaded once per file and process.
inline const std::map<std::string, std::string>& golden_records(
    const std::string& file) {
  static std::map<std::string, std::map<std::string, std::string>> cache;
  auto [it, fresh] = cache.try_emplace(file);
  if (!fresh) return it->second;
  std::ifstream in(golden_path(file));
  if (!in) throw std::runtime_error("cannot open " + golden_path(file));
  std::string line;
  std::string key;
  std::string body;
  bool open = false;
  while (std::getline(in, line)) {
    if (!open) {
      if (line.rfind("record ", 0) == 0) {
        key = line.substr(7);
        body.clear();
        open = true;
      }
    } else if (line == "end") {
      it->second.emplace(key, body);
      open = false;
    } else {
      body += line + "\n";
    }
  }
  return it->second;
}

/// Empty when `actual` equals the committed record `key` of `file`,
/// otherwise a diagnostic showing both records.
inline std::string golden_diff(const std::string& file, const std::string& key,
                               const std::string& actual) {
  const auto& records = golden_records(file);
  const auto it = records.find(key);
  if (it != records.end() && it->second == actual) return {};
  return "golden record '" + key + "' of tests/golden/" + file +
         " diverged\n--- expected:\n" +
         (it == records.end() ? std::string("(no such record)\n")
                              : it->second) +
         "--- actual:\n" + actual +
         "If the change is intentional, regenerate the corpus as the header "
         "of tests/golden/" + file + " explains.";
}

/// One frozen record: its key and how to recompute its body.
struct GoldenCase {
  std::string key;
  std::function<std::string()> compute;
};

/// golden_diff for every case whose key starts with `prefix`; returns the
/// diagnostics, plus one when no case matched.
inline std::vector<std::string> golden_diffs(
    const std::string& file, const std::vector<GoldenCase>& cases,
    const std::string& prefix) {
  std::vector<std::string> diffs;
  bool matched = false;
  for (const GoldenCase& c : cases) {
    if (c.key.rfind(prefix, 0) != 0) continue;
    matched = true;
    std::string diff = golden_diff(file, c.key, c.compute());
    if (!diff.empty()) diffs.push_back(std::move(diff));
  }
  if (!matched) diffs.push_back("no golden case matches '" + prefix + "'");
  return diffs;
}

/// Writes `cases` to tests/golden/<file> under the given header comment.
inline void write_golden(const std::string& file, const std::string& header,
                         const std::vector<GoldenCase>& cases) {
  std::ofstream out(golden_path(file));
  if (!out) throw std::runtime_error("cannot write " + golden_path(file));
  out << header;
  for (const GoldenCase& c : cases) {
    out << "\nrecord " << c.key << "\n" << c.compute() << "end\n";
  }
}

// --- netrec-bench preloads ------------------------------------------------------

/// netrec-bench's plan_fresh / plan_hot preload: CAIDA-like seed 1, eight
/// pairs of 10 units, demand seed 7, no baseline damage.
inline core::RecoveryProblem serve_caida_problem() {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::CaidaLikeOptions{}, 1});
  util::Rng rng(7);
  p.demands = scenario::far_apart_demands(p.graph, 8, 10.0, rng);
  return p;
}

/// netrec-bench's plan_scale preload: Barabasi-Albert with 2000 nodes
/// (topology seed 1), eight pairs of 10 units, demand seed 7.
inline core::RecoveryProblem ba2000_problem() {
  core::RecoveryProblem p;
  topology::BarabasiAlbertOptions ba;
  ba.nodes = 2000;
  p.graph = topology::make_topology({ba, 1});
  util::Rng rng(7);
  p.demands = scenario::far_apart_demands(p.graph, 8, 10.0, rng);
  return p;
}

/// CAIDA-like instance: well over the eager-row threshold, so every master
/// runs with lazy capacity rows (the netrec-bench plan_fresh topology).
/// Its 25-unit demands make capacities bind: ISP's repairs change when
/// violated capacity rows are never appended.
inline core::RecoveryProblem caida_lazy_scenario(std::uint64_t seed) {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::CaidaLikeOptions{}, seed});
  util::Rng demand_rng(7);
  p.demands = scenario::far_apart_demands(p.graph, 8, 25.0, demand_rng);
  util::Rng damage_rng(1000);
  disruption::random_failures(p.graph, 0.2, 0.2, damage_rng);
  return p;
}

/// `p` with `fraction` of the nodes and, separately, of the edges broken,
/// drawn as serve_request_body draws damage state `state` of `seed`.
inline core::RecoveryProblem damaged(core::RecoveryProblem p, double fraction,
                                     std::uint64_t seed, std::uint64_t state) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + state);
  const auto draw = [&](std::size_t n) {
    return rng.sample_without_replacement(
        n, static_cast<std::size_t>(
               std::llround(fraction * static_cast<double>(n))));
  };
  for (std::size_t n : draw(p.graph.num_nodes())) {
    p.graph.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e : draw(p.graph.num_edges())) {
    p.graph.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return p;
}

// --- ISP corpus ----------------------------------------------------------------

/// The option matrix: default engine, both centrality modes,
/// prune/direct-repair ablations and jittered metrics.  The CAIDA and
/// BA-2000 records run the LP's lazy capacity-row regime (graphs above its
/// 160-edge eager threshold); the caida-lazy record is the one whose
/// capacities bind, and LpGolden.LazyCaida pins that regime's routings.
inline std::vector<std::pair<std::string, core::IspOptions>> option_combos() {
  std::vector<std::pair<std::string, core::IspOptions>> combos;
  combos.emplace_back("default", core::IspOptions{});
  {
    core::IspOptions o;
    o.use_classic_betweenness = true;
    combos.emplace_back("classic-betweenness", o);
  }
  {
    core::IspOptions o;
    o.enable_prune = false;
    combos.emplace_back("no-prune", o);
  }
  {
    core::IspOptions o;
    o.enable_direct_edge_repair = false;
    combos.emplace_back("no-direct-repair", o);
  }
  {
    core::IspOptions o;
    o.length_jitter = 0.15;
    o.jitter_seed = 99;
    combos.emplace_back("jittered-metric", o);
  }
  return combos;
}

/// Scenario family of an ISP corpus record.  kBa2000 and kCaida are the
/// netrec-bench preloads (plan_scale and plan_fresh) under one seeded
/// damage state: their hubs grow working bubbles far larger than the small
/// ER and Bell-Canada scenarios do.  kCaidaLazy is caida_lazy_scenario,
/// whose binding capacities pin the LP's lazy capacity rows.
enum class IspFamily { kEr, kBellCanada, kBa2000, kCaida, kCaidaLazy };

struct IspCase {
  /// "<seed> <family> <combo>", or "<seed> <family> state <k> <combo>" for
  /// the preload families.
  std::string key;
  IspFamily family = IspFamily::kEr;
  std::uint64_t seed = 0;
  std::uint64_t state = 0;  ///< damage state (preload families only)
  core::IspOptions options;

  core::RecoveryProblem problem() const {
    switch (family) {
      case IspFamily::kEr:
        return er_scenario(seed);
      case IspFamily::kBellCanada:
        return bell_canada_scenario(seed);
      case IspFamily::kBa2000:
        return damaged(ba2000_problem(), 0.1, seed, state);
      case IspFamily::kCaidaLazy:
        return caida_lazy_scenario(seed);
      case IspFamily::kCaida:
        break;
    }
    return damaged(serve_caida_problem(), 0.2, seed, state);
  }
};

/// ER seeds 1-12 and Bell-Canada seeds 1-8 under default options, then ER
/// and Bell-Canada seeds 101-103 and 201-203 under every option combo, then
/// two damage states of seeds 1 and 104729 on each netrec-bench preload
/// (default and no-prune; one BA record with two solve threads), then
/// caida_lazy_scenario(1) under default options.
inline std::vector<IspCase> isp_cases() {
  std::vector<IspCase> cases;
  const auto add = [&](bool bc, std::uint64_t seed, const std::string& combo,
                       const core::IspOptions& options) {
    cases.push_back({std::to_string(seed) + (bc ? " bell-canada " : " er ") +
                         combo,
                     bc ? IspFamily::kBellCanada : IspFamily::kEr, seed, 0,
                     options});
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    add(false, seed, "default", {});
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) add(true, seed, "default", {});
  for (const std::uint64_t base : {100, 200}) {
    for (std::uint64_t seed = base + 1; seed <= base + 3; ++seed) {
      for (const auto& [name, options] : option_combos()) {
        add(false, seed, name, options);
        add(true, seed, name, options);
      }
    }
  }
  core::IspOptions no_prune;
  no_prune.enable_prune = false;
  core::IspOptions two_threads;
  two_threads.solve_threads = 2;
  const std::pair<IspFamily, const char*> preloads[] = {
      {IspFamily::kBa2000, "ba-2000"}, {IspFamily::kCaida, "caida"}};
  for (const auto& [family, name] : preloads) {
    for (const std::uint64_t seed : {1ULL, 104729ULL}) {
      for (std::uint64_t state = 0; state < 2; ++state) {
        const std::string prefix = std::to_string(seed) + " " + name +
                                   " state " + std::to_string(state) + " ";
        cases.push_back({prefix + "default", family, seed, state, {}});
        cases.push_back({prefix + "no-prune", family, seed, state, no_prune});
        if (family == IspFamily::kBa2000 && seed == 1 && state == 0) {
          cases.push_back(
              {prefix + "solve-threads-2", family, seed, state, two_threads});
        }
      }
    }
  }
  cases.push_back({"1 caida-lazy default", IspFamily::kCaidaLazy, 1, 0, {}});
  return cases;
}

/// Solves with tracing on and formats everything the solve decided.
inline std::string isp_record(const core::RecoveryProblem& problem,
                              const core::IspOptions& options) {
  core::IspSolver solver(problem, options);
  solver.set_trace(true);
  const core::RecoverySolution s = solver.solve();
  const core::IspStats& st = solver.stats();
  Fnv1a64 events;
  for (const core::IspEvent& ev : st.events) {
    events.add_id(static_cast<std::int64_t>(ev.kind));
    events.add_id(ev.demand);
    events.add_id(ev.node);
    events.add_id(ev.edge);
    events.add(ev.amount);
  }
  std::ostringstream out;
  out << "repaired_nodes" << join_ids(s.repaired_nodes) << "\n"
      << "repaired_edges" << join_ids(s.repaired_edges) << "\n"
      << "iterations " << st.iterations << "\n"
      << "prunes " << st.prunes << "\n"
      << "splits " << st.splits << "\n"
      << "direct_edge_repairs " << st.direct_edge_repairs << "\n"
      << "watchdog_activations " << st.watchdog_activations << "\n"
      << "repair_cost " << hex(s.repair_cost) << "\n"
      << "satisfied_fraction " << hex(s.satisfied_fraction) << "\n"
      << "total_routed " << hex(s.routing.total_routed) << "\n"
      << "routed" << join_hex(s.routing.routed) << "\n"
      << "instance_feasible " << (s.instance_feasible ? 1 : 0) << "\n"
      << "events " << st.events.size() << " fnv1a64 " << events.str() << "\n";
  return out.str();
}

// --- graph kernels -------------------------------------------------------------

/// Connected-ish ER draw with ~15% broken edges and ~10% broken nodes.
inline graph::Graph broken_er(std::uint64_t seed, std::size_t nodes = 40,
                              double p = 0.15) {
  util::Rng rng(seed);
  topology::ErdosRenyiOptions options;
  options.nodes = nodes;
  options.edge_probability = p;
  options.capacity = 8.0;
  graph::Graph g = topology::make_topology(options, rng);
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (rng.chance(0.1)) g.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.chance(0.15)) g.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return g;
}

inline graph::Graph broken_bell_canada(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph g = topology::make_topology({topology::BellCanadaOptions{}});
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (rng.chance(0.15)) g.set_node_broken(static_cast<graph::NodeId>(n), true);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.chance(0.2)) g.set_edge_broken(static_cast<graph::EdgeId>(e), true);
  }
  return g;
}

/// Non-uniform deterministic length metric so ties are rare but present.
inline graph::EdgeWeight test_length() {
  return [](graph::EdgeId e) {
    return 1.0 + static_cast<double>(e % 5) * 0.25;
  };
}

inline std::function<bool(graph::NodeId)> working_node_filter(
    const graph::Graph& g) {
  return [&g](graph::NodeId n) { return !g.node_broken(n); };
}

inline std::string tree_digest(const graph::ShortestPathTree& tree) {
  Fnv1a64 h;
  for (std::size_t i = 0; i < tree.distance.size(); ++i) {
    h.add(tree.distance[i]);
    h.add_id(tree.parent_edge[i]);
  }
  return h.str();
}

/// Trees from every 7th source, with working-element filters and without.
inline std::string dijkstra_record(const graph::Graph& g) {
  graph::ViewConfig working;
  working.edge_ok = graph::working_edge_filter(g);
  working.length = test_length();
  const auto filtered = graph::GraphView::build(g, working);
  const auto unfiltered = graph::GraphView::build(g, {.length = test_length()});
  std::ostringstream out;
  for (graph::NodeId s = 0; s < static_cast<graph::NodeId>(g.num_nodes());
       s += 7) {
    out << "source " << s << " filtered "
        << tree_digest(graph::dijkstra(filtered, s)) << " unfiltered "
        << tree_digest(graph::dijkstra(unfiltered, s)) << "\n";
  }
  return out.str();
}

inline std::string betweenness_record(const graph::Graph& g) {
  graph::ViewConfig config;
  config.edge_ok = graph::working_edge_filter(g);
  config.length = test_length();
  const auto view = graph::GraphView::build(g, config);
  return "scores" + join_hex(graph::betweenness_centrality(view)) + "\n";
}

/// Flow value and every nonzero net edge flow, as hex-floats.
inline std::string flow_fields(const graph::MaxflowResult& flow) {
  std::ostringstream out;
  out << "value " << hex(flow.value) << "\nedge_flow";
  for (std::size_t e = 0; e < flow.edge_flow.size(); ++e) {
    if (flow.edge_flow[e] != 0.0) out << " " << e << ":" << hex(flow.edge_flow[e]);
  }
  out << "\n";
  return out.str();
}

/// Every bit of a flow: value and all net edge flows (signed zeros too).
inline std::string flow_bits(const graph::MaxflowResult& flow) {
  return hex(flow.value) + " |" + join_hex(flow.edge_flow);
}

/// Triangle 0-1-2: path 0-1-2 (capacities 5, 3) beside the chord 0-2
/// (capacity 2) — a network far smaller than any corpus graph, for
/// exercising reuse of per-thread kernel workspaces across sizes.
inline graph::Graph small_flow_graph() {
  graph::Builder builder;
  for (int i = 0; i < 3; ++i) builder.add_node();
  builder.add_edge(0, 1, 5.0);
  builder.add_edge(1, 2, 3.0);
  builder.add_edge(0, 2, 2.0);
  return builder.finalize();
}

inline std::string max_flow_record(const graph::Graph& g) {
  const auto view = graph::GraphView::working(g);
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  return flow_fields(graph::max_flow(view, 0, last));
}

/// Residual capacities as greedy routing and ISP leave them: every 7th
/// edge exhausted, some at or just under the 1e-9 skip threshold, one
/// class barely above it, the rest partly consumed.
inline std::vector<double> test_residual(const graph::Graph& g) {
  std::vector<double> residual(g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const double cap = g.edge_capacity(static_cast<graph::EdgeId>(e));
    switch (e % 7) {
      case 0: residual[e] = 0.0; break;
      case 3: residual[e] = 1e-9; break;
      case 5: residual[e] = 4e-10; break;
      case 6: residual[e] = e % 2 == 0 ? 3e-9 : cap; break;
      default: residual[e] = cap * (0.25 + 0.125 * static_cast<double>(e % 4));
    }
  }
  return residual;
}

/// Three source/sink pairs among the nodes `in_view` accepts.
inline std::vector<std::pair<graph::NodeId, graph::NodeId>> flow_pairs(
    const graph::Graph& g, const std::function<bool(graph::NodeId)>& in_view) {
  std::vector<graph::NodeId> nodes;
  for (std::size_t n = 0; n < g.num_nodes(); ++n) {
    if (in_view(static_cast<graph::NodeId>(n))) {
      nodes.push_back(static_cast<graph::NodeId>(n));
    }
  }
  const std::size_t k = nodes.size();
  return {{nodes[0], nodes[k - 1]},
          {nodes[1], nodes[k / 2]},
          {nodes[2], nodes[k - 2]}};
}

/// Max flows on the working view under test_residual capacities.
inline std::string max_flow_residual_record(const graph::Graph& g) {
  const auto view = graph::GraphView::working(g);
  const auto residual = test_residual(g);
  std::ostringstream out;
  for (const auto& [s, t] : flow_pairs(g, working_node_filter(g))) {
    out << "pair " << s << " " << t << "\n"
        << flow_fields(graph::max_flow(view, s, t, residual));
  }
  return out.str();
}

/// ISP's bubble flow (Theorem 3): the node_ok overload on the working view,
/// with every fourth node outside the bubble.
inline std::string max_flow_bubble_record(const graph::Graph& g) {
  const auto view = graph::GraphView::working(g);
  const auto residual = test_residual(g);
  std::vector<char> in_bubble(g.num_nodes());
  for (std::size_t n = 0; n < g.num_nodes(); ++n) in_bubble[n] = n % 4 != 1;
  std::ostringstream out;
  for (const auto& [s, t] : flow_pairs(g, [&](graph::NodeId n) {
         return !g.node_broken(n) && in_bubble[static_cast<std::size_t>(n)];
       })) {
    out << "pair " << s << " " << t << "\n"
        << flow_fields(graph::max_flow(view, s, t, residual, in_bubble));
  }
  return out.str();
}

/// Per-demand flows on plan_fresh's CAIDA-like topology: ISP's working view
/// (prune, watchdog) and the full graph (split decision 1's f*(i,j)).
inline std::string max_flow_caida_record(const core::RecoveryProblem& p) {
  const auto working = graph::GraphView::working(p.graph);
  const auto full = graph::GraphView::build(p.graph);
  std::ostringstream out;
  for (const mcf::Demand& d : p.demands) {
    out << "demand " << d.source << " " << d.target << "\nworking "
        << flow_fields(graph::max_flow(working, d.source, d.target))
        << "full " << flow_fields(graph::max_flow(full, d.source, d.target));
  }
  return out.str();
}

/// shortest_path between fixed node pairs (source == target included) on
/// the working view under test_length.
inline std::string shortest_path_record(const graph::Graph& g) {
  graph::ViewConfig working;
  working.edge_ok = graph::working_edge_filter(g);
  working.length = test_length();
  const auto view = graph::GraphView::build(g, working);
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  std::ostringstream out;
  for (graph::NodeId s = 0; s <= 14; s += 7) {
    for (const graph::NodeId t : {last, graph::NodeId{20}, s}) {
      const auto path = graph::shortest_path(view, s, t);
      out << "pair " << s << " " << t;
      if (path) {
        out << " edges" << join_ids(path->edges) << "\n";
      } else {
        out << " none\n";
      }
    }
  }
  return out.str();
}

/// Demands after ISP-style splits: each of the first four (s, t, d) becomes
/// (s, t, d/2), (s, v, d/2), (v, t, d/2) through another demand's target v,
/// so sources repeat and centrality shares first-path trees.
inline std::vector<mcf::Demand> split_demands(
    const std::vector<mcf::Demand>& demands) {
  std::vector<mcf::Demand> out;
  for (std::size_t h = 0; h < demands.size(); ++h) {
    const mcf::Demand& d = demands[h];
    if (h >= 4 || h + 4 >= demands.size()) {
      out.push_back(d);
      continue;
    }
    const graph::NodeId v = demands[h + 4].target;
    out.push_back({d.source, d.target, d.amount / 2.0});
    out.push_back({d.source, v, d.amount / 2.0});
    out.push_back({v, d.target, d.amount / 2.0});
  }
  return out;
}

/// ISP's metric view of the whole graph: broken elements included but
/// longer; residual capacities partly consumed, every 29th edge exhausted
/// (CAIDA-like graphs are nearly trees, so sparser cuts keep demands
/// coverable).
inline graph::GraphView centrality_view(const graph::Graph& g) {
  const graph::EdgeWeight base = test_length();
  return graph::GraphView::build(
      g, {.length =
              [&g, base](graph::EdgeId e) {
                return base(e) + (g.edge_usable(e) ? 0.0 : 4.0);
              },
          .capacity =
              [&g](graph::EdgeId e) {
                if (e % 29 == 0) return 0.0;
                return g.edge_capacity(e) *
                       (1.0 - 0.125 * static_cast<double>(e % 4));
              }});
}

/// Scores (nonzero, hex), the ranking prefix over them, contributors and
/// every demand's P̂* path set.
inline std::string centrality_record(const core::CentralityResult& c,
                                     std::size_t num_demands) {
  std::ostringstream out;
  out << "scores";
  const auto& scores = c.scores();
  for (std::size_t v = 0; v < scores.size(); ++v) {
    if (scores[v] != 0.0) out << " " << v << ":" << hex(scores[v]);
  }
  out << "\nranking";
  for (const graph::NodeId v : c.ranking()) {
    if (c.score(v) == 0.0) break;
    out << " " << v;
  }
  out << "\n";
  for (std::size_t v = 0; v < scores.size(); ++v) {
    const auto& ids = c.contributors(static_cast<graph::NodeId>(v));
    if (ids.empty()) continue;
    out << "contributors " << v << ":" << join_ids(ids) << "\n";
  }
  for (std::size_t h = 0; h < num_demands; ++h) {
    const core::DemandPathSet& set = c.demand_paths(static_cast<int>(h));
    out << "demand " << h << " total " << hex(set.total_capacity) << "\n";
    for (std::size_t p = 0; p < set.paths.size(); ++p) {
      out << "path " << hex(set.capacities[p]) << " edges"
          << join_ids(set.paths[p].edges) << "\n";
    }
  }
  return out.str();
}

/// demand_based_centrality on the CAIDA-like instance with split demands.
inline std::string centrality_caida_record(const core::RecoveryProblem& p) {
  const auto demands = split_demands(p.demands);
  return centrality_record(
      core::demand_based_centrality(centrality_view(p.graph), demands),
      demands.size());
}

/// Successive shortest paths 0 -> last covering 30 units.
inline std::string successive_paths_record(const graph::Graph& g) {
  graph::ViewConfig config;
  config.edge_ok = graph::working_edge_filter(g);
  config.length = test_length();
  const auto view = graph::GraphView::build(g, config);
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  const auto sp = graph::successive_shortest_paths(view, 0, last, 30.0);
  std::ostringstream out;
  out << "total_capacity " << hex(sp.total_capacity) << "\n";
  for (std::size_t p = 0; p < sp.paths.size(); ++p) {
    out << "path " << hex(sp.capacities[p]) << " edges"
        << join_ids(sp.paths[p].edges) << "\n";
  }
  return out.str();
}

/// Topology identity: sizes, every node and edge column, and the per-node
/// incidence order that fixes every downstream tie-break.
inline std::string topology_record(const graph::Graph& g) {
  Fnv1a64 nodes;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto n = static_cast<graph::NodeId>(i);
    nodes.add_text(g.node_name(n));
    nodes.add(g.node_x(n));
    nodes.add(g.node_y(n));
    nodes.add(g.node_repair_cost(n));
    nodes.add_id(g.node_broken(n) ? 1 : 0);
  }
  Fnv1a64 edges;
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto e = static_cast<graph::EdgeId>(i);
    edges.add_id(g.edge_u(e));
    edges.add_id(g.edge_v(e));
    edges.add(g.edge_capacity(e));
    edges.add(g.edge_repair_cost(e));
    edges.add_id(g.edge_broken(e) ? 1 : 0);
  }
  Fnv1a64 incidence;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto span = g.incident_edges(static_cast<graph::NodeId>(i));
    incidence.add_id(static_cast<std::int64_t>(span.size()));
    for (graph::EdgeId e : span) incidence.add_id(e);
  }
  std::ostringstream out;
  out << "nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n"
      << "node_columns " << nodes.str() << "\n"
      << "edge_columns " << edges.str() << "\n"
      << "incidence " << incidence.str() << "\n";
  return out.str();
}

/// GML fixture exercising the loader's rules: a dropped self-loop, a
/// reversed duplicate edge (the first one wins), node ids that are not
/// dense, label and coordinate fallbacks, and broken flags on both kinds.
inline constexpr const char* kTopologyGml = R"(graph [
  directed 0
  node [ id 10 label "a" x 1.5 y -2 cost 3 ]
  node [ id 20 label "b" Longitude 4.25 Latitude 7 broken 1 ]
  node [ id 30 x 9 y 9 ]
  node [ id 40 label "d" cost 0.5 ]
  edge [ source 10 target 20 capacity 12 cost 2 ]
  edge [ source 20 target 20 capacity 99 ]
  edge [ source 20 target 10 capacity 77 broken 1 ]
  edge [ source 20 target 30 LinkSpeed 40 broken 1 ]
  edge [ source 30 target 40 ]
  edge [ source 40 target 10 cost 4 ]
]
)";

/// far_apart_demands' demands — FNV-1a-64 of every (source, target, amount
/// bits) — and the next word of its RNG afterwards, or the exception text.
inline std::string placement_record(const graph::Graph& g, std::size_t pairs,
                                    double min_distance_factor) {
  util::Rng rng(7);
  std::vector<mcf::Demand> demands;
  try {
    demands = scenario::far_apart_demands(g, pairs, 10.0, rng,
                                          min_distance_factor);
  } catch (const std::exception& e) {
    return std::string("throws ") + e.what() + "\n";
  }
  Fnv1a64 h;
  for (const mcf::Demand& d : demands) {
    h.add_id(d.source);
    h.add_id(d.target);
    h.add(d.amount);
  }
  char next[24];
  std::snprintf(next, sizeof next, "%016llx",
                static_cast<unsigned long long>(rng.next()));
  return "demands " + std::to_string(demands.size()) + " fnv1a64 " + h.str() +
         "\nnext_rng " + next + "\n";
}

/// Two triangles with no edge between them.
inline graph::Graph two_triangles() {
  graph::Builder builder;
  builder.add_nodes(6);
  for (graph::NodeId base : {0, 3}) {
    builder.add_edge(base, base + 1, 1.0);
    builder.add_edge(base + 1, base + 2, 1.0);
    builder.add_edge(base + 2, base, 1.0);
  }
  return builder.finalize();
}

/// Demand placement on the netrec-bench preloads (CAIDA-like seeds 1-3,
/// BA-2000 seeds 1-3) and on BA-1024, BA-10^4, ER-100 and Bell-Canada, each
/// at four distance factors; then more pairs than far-apart pairs exist, and
/// a disconnected graph.
inline void add_placement_cases(std::vector<GoldenCase>& cases) {
  using Factory = std::function<graph::Graph()>;
  const auto ba = [](std::size_t nodes, std::uint64_t seed) -> Factory {
    return [=] {
      topology::BarabasiAlbertOptions options;
      options.nodes = nodes;
      return topology::make_topology({options, seed});
    };
  };
  std::vector<std::pair<std::string, Factory>> graphs;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    graphs.emplace_back("caida " + std::to_string(s), [s] {
      return topology::make_topology({topology::CaidaLikeOptions{}, s});
    });
  }
  for (std::uint64_t s = 1; s <= 3; ++s) {
    graphs.emplace_back("ba-2000 " + std::to_string(s), ba(2000, s));
  }
  graphs.emplace_back("ba-1024 1", ba(1024, 1));
  graphs.emplace_back("ba-10000 1", ba(10000, 1));
  graphs.emplace_back("er-100 1", [] {
    return topology::make_topology({topology::ErdosRenyiOptions{}, 1});
  });
  graphs.emplace_back("bell-canada", [] {
    return topology::make_topology({topology::BellCanadaOptions{}});
  });
  for (const auto& [name, make] : graphs) {
    for (const auto& [label, factor] :
         {std::pair{"0", 0.0}, {"0.5", 0.5}, {"0.8", 0.8}, {"1", 1.0}}) {
      cases.push_back({"placement " + name + " factor " + label,
                       [make, factor] {
                         return placement_record(make(), 8, factor);
                       }});
    }
  }
  cases.push_back({"placement bell-canada pairs 40 factor 1", [] {
                     return placement_record(
                         topology::make_topology(
                             {topology::BellCanadaOptions{}}),
                         40, 1.0);
                   }});
  cases.push_back({"placement caida 1 pairs 400 factor 0.8", [] {
                     return placement_record(
                         topology::make_topology(
                             {topology::CaidaLikeOptions{}, 1}),
                         400, 0.8);
                   }});
  cases.push_back({"placement disconnected", [] {
                     return placement_record(two_triangles(), 2, 0.5);
                   }});
}

inline std::vector<GoldenCase> graph_kernel_cases() {
  std::vector<GoldenCase> cases;
  const auto add = [&](const std::string& key,
                       std::function<std::string()> compute) {
    cases.push_back({key, std::move(compute)});
  };
  add("topology bell-canada", [] {
    return topology_record(
        topology::make_topology({topology::BellCanadaOptions{}}));
  });
  for (std::uint64_t s = 1; s <= 3; ++s) {
    add("topology er " + std::to_string(s), [s] {
      return topology_record(
          topology::make_topology({topology::ErdosRenyiOptions{}, s}));
    });
  }
  for (std::uint64_t s = 1; s <= 3; ++s) {
    add("topology caida " + std::to_string(s), [s] {
      return topology_record(
          topology::make_topology({topology::CaidaLikeOptions{}, s}));
    });
  }
  add("topology gml", [] {
    return topology_record(graph::parse_gml(kTopologyGml));
  });
  for (std::uint64_t s = 1; s <= 8; ++s) {
    add("dijkstra er " + std::to_string(s),
        [s] { return dijkstra_record(broken_er(s)); });
  }
  for (std::uint64_t s = 1; s <= 4; ++s) {
    add("dijkstra bell-canada " + std::to_string(s),
        [s] { return dijkstra_record(broken_bell_canada(s)); });
  }
  for (std::uint64_t s = 1; s <= 5; ++s) {
    add("betweenness er " + std::to_string(s),
        [s] { return betweenness_record(broken_er(s)); });
  }
  for (std::uint64_t s = 1; s <= 3; ++s) {
    add("betweenness bell-canada " + std::to_string(s),
        [s] { return betweenness_record(broken_bell_canada(s)); });
  }
  for (std::uint64_t s = 1; s <= 6; ++s) {
    add("max-flow er " + std::to_string(s),
        [s] { return max_flow_record(broken_er(s, 30, 0.2)); });
  }
  for (std::uint64_t s = 1; s <= 5; ++s) {
    add("successive-paths er " + std::to_string(s),
        [s] { return successive_paths_record(broken_er(s)); });
  }
  for (std::uint64_t s = 1; s <= 4; ++s) {
    add("max-flow residual er " + std::to_string(s),
        [s] { return max_flow_residual_record(broken_er(s, 30, 0.2)); });
  }
  for (std::uint64_t s = 1; s <= 4; ++s) {
    add("max-flow bubble er " + std::to_string(s),
        [s] { return max_flow_bubble_record(broken_er(s, 30, 0.2)); });
  }
  add("max-flow caida 1",
      [] { return max_flow_caida_record(caida_lazy_scenario(1)); });
  for (std::uint64_t s = 1; s <= 4; ++s) {
    add("shortest-path er " + std::to_string(s),
        [s] { return shortest_path_record(broken_er(s)); });
  }
  add("centrality caida split 1",
      [] { return centrality_caida_record(caida_lazy_scenario(1)); });
  add_placement_cases(cases);
  return cases;
}

// --- LP consumers --------------------------------------------------------------

/// (demand, start, edges, amount bits) of every flow, in output order.
inline std::string flow_digest(const std::vector<mcf::PathFlow>& flows) {
  Fnv1a64 h;
  for (const mcf::PathFlow& f : flows) {
    h.add_id(f.demand_index);
    h.add_id(f.path.start);
    h.add_id(static_cast<std::int64_t>(f.path.edges.size()));
    for (graph::EdgeId e : f.path.edges) h.add_id(e);
    h.add(f.amount);
  }
  return h.str();
}

inline std::string routing_fields(const mcf::RoutingResult& r) {
  return std::string(r.fully_routed ? "1" : "0") + " total " +
         hex(r.total_routed) + " routed" + join_hex(r.routed) + " flows " +
         std::to_string(r.flows.size()) + " fnv1a64 " + flow_digest(r.flows) +
         "\n";
}

/// The schedule's own (greedy-scored) restoration series, or with `exact`
/// the referee's fresh LP per repaired prefix of the same schedule.
inline std::vector<double> schedule_series(
    const core::RecoveryProblem& problem,
    const core::RecoverySolution& solution, bool exact) {
  const heuristics::RecoverySchedule schedule =
      heuristics::schedule_repairs(problem, solution);
  return exact ? heuristics::exact_restored_series(problem, solution, schedule)
               : schedule.restored_series();
}

/// Everything the one-shot LP consumers return on an eager-row instance,
/// bit for bit: routability and max-flow referees (the full-graph
/// max_routed_flow skips route_demands' greedy pass), eq. (8) and its face,
/// the scored ISP plan, and its schedule's greedy series and referee series.
inline std::string lp_eager_record(const core::RecoveryProblem& problem) {
  const graph::Graph& g = problem.graph;
  std::ostringstream out;
  out << "max_routed_working "
      << routing_fields(mcf::max_routed_flow(graph::GraphView::working(g),
                                             problem.demands))
      << "route_demands_full "
      << routing_fields(
             mcf::route_demands(graph::GraphView::build(g), problem.demands))
      << "max_routed_full "
      << routing_fields(
             mcf::max_routed_flow(graph::GraphView::build(g), problem.demands));
  const mcf::BrokenUsageResult usage =
      mcf::min_broken_usage(g, problem.demands);
  const mcf::ImpliedRepairs implied =
      mcf::implied_repairs(g, usage.routing.flows);
  out << "min_broken_usage " << (usage.feasible ? 1 : 0) << " cost "
      << hex(usage.cost) << " fnv1a64 " << flow_digest(usage.routing.flows)
      << " nodes" << join_ids(implied.nodes) << " edges"
      << join_ids(implied.edges) << "\n";
  util::Rng rng(17);
  const mcf::OptimalFaceBand band =
      mcf::explore_optimal_face(g, problem.demands, 6, rng);
  out << "face " << (band.feasible ? 1 : 0) << " samples"
      << join_ids(band.samples) << "\n"
      << "feasible_when_fully_repaired "
      << (problem.feasible_when_fully_repaired() ? 1 : 0) << "\n";
  // IspSolver::solve returns its plan as scored by core::score_solution.
  const core::RecoverySolution isp = core::IspSolver(problem).solve();
  out << "score " << hex(isp.repair_cost) << " satisfied "
      << hex(isp.satisfied_fraction) << " "
      << routing_fields(isp.routing)
      << "schedule_greedy" << join_hex(schedule_series(problem, isp, false))
      << "\n"
      << "schedule_exact" << join_hex(schedule_series(problem, isp, true))
      << "\n";
  return out.str();
}

/// Lazy-row instances record only what every optimal LP vertex shares:
/// verdicts, ISP's repair decisions, objectives and satisfied fractions to
/// nine significant digits, and the schedule length.
inline std::string lp_lazy_record(const core::RecoveryProblem& problem) {
  const graph::Graph& g = problem.graph;
  const mcf::RoutingResult working =
      mcf::max_routed_flow(graph::GraphView::working(g), problem.demands);
  const mcf::RoutingResult full =
      mcf::route_demands(graph::GraphView::build(g), problem.demands);
  const mcf::RoutingResult full_lp =
      mcf::max_routed_flow(graph::GraphView::build(g), problem.demands);
  const mcf::BrokenUsageResult usage =
      mcf::min_broken_usage(g, problem.demands);
  const core::RecoverySolution isp = core::IspSolver(problem).solve();
  std::ostringstream out;
  out << "feasible_when_fully_repaired "
      << (problem.feasible_when_fully_repaired() ? 1 : 0) << "\n"
      << "max_routed_working " << (working.fully_routed ? 1 : 0) << " total "
      << sig9(working.total_routed) << "\n"
      << "route_demands_full " << (full.fully_routed ? 1 : 0) << " total "
      << sig9(full.total_routed) << "\n"
      << "max_routed_full " << (full_lp.fully_routed ? 1 : 0) << " total "
      << sig9(full_lp.total_routed) << "\n"
      << "min_broken_usage " << (usage.feasible ? 1 : 0) << " cost "
      << sig9(usage.cost) << "\n"
      << "repaired_nodes" << join_ids(isp.repaired_nodes) << "\n"
      << "repaired_edges" << join_ids(isp.repaired_edges) << "\n"
      << "repair_cost " << hex(isp.repair_cost) << "\n"
      << "satisfied " << sig9(isp.satisfied_fraction) << "\n"
      << "schedule_steps "
      << schedule_series(problem, isp, false).size() << "\n";
  return out.str();
}

/// Bell-Canada and ER seeds 1-4 (eager capacity rows, exact records), then
/// CAIDA-like seeds 1-2 (lazy rows, vertex-independent records).
inline std::vector<GoldenCase> lp_cases() {
  std::vector<GoldenCase> cases;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    cases.push_back({"eager bell-canada " + std::to_string(s), [s] {
                       return lp_eager_record(bell_canada_scenario(s));
                     }});
  }
  for (std::uint64_t s = 1; s <= 4; ++s) {
    cases.push_back({"eager er " + std::to_string(s),
                     [s] { return lp_eager_record(er_scenario(s)); }});
  }
  for (std::uint64_t s = 1; s <= 2; ++s) {
    cases.push_back({"lazy caida " + std::to_string(s),
                     [s] { return lp_lazy_record(caida_lazy_scenario(s)); }});
  }
  return cases;
}

// --- Timeline restoration ------------------------------------------------------

inline recovery::TimelineOptions evolving_options() {
  recovery::TimelineOptions topt;
  topt.stage_budget = 3;
  topt.max_stages = 32;
  return topt;
}

inline std::unique_ptr<recovery::Dynamics> make_aftershocks() {
  disruption::AftershockOptions opts;
  opts.first.variance = 40.0;
  opts.decay = 0.5;
  opts.max_shocks = 3;
  return std::make_unique<recovery::AftershockDynamics>(opts);
}

inline std::unique_ptr<recovery::Dynamics> make_cascade() {
  // Tight overload factor so the 3-4 unit demand flows overload the
  // ER/Bell-Canada capacities and the cascade actually fires.
  disruption::CascadeOptions opts;
  opts.overload_factor = 0.15;
  return std::make_unique<recovery::CascadeDynamics>(opts);
}

inline std::string timeline_record(const recovery::TimelineResult& r) {
  std::ostringstream out;
  out << "initial_routed " << hex(r.initial_routed) << "\n"
      << "final_routed " << hex(r.final_routed) << "\n"
      << "total_repairs " << r.total_repairs << "\n"
      << "total_repair_cost " << hex(r.total_repair_cost) << "\n"
      << "shock_breaks " << r.shock_breaks << "\n";
  for (const recovery::StageRecord& s : r.stages) {
    out << "stage " << s.stage << " repairs";
    for (const heuristics::ScheduleStep& step : s.repairs) {
      out << (step.is_node ? " n" : " e")
          << (step.is_node ? step.node : step.edge);
    }
    out << " routed_after";
    for (const heuristics::ScheduleStep& step : s.repairs) {
      out << " " << hex(step.restored_after);
    }
    out << " routed_end "
        << hex(s.routed_end) << " shock " << s.shock.broken_nodes << " "
        << s.shock.broken_edges << " cost " << hex(s.repair_cost) << "\n";
  }
  return out.str();
}

/// The evolving-dynamics runs: per seed, ER and Bell-Canada instances under
/// replanning / list-order policies against aftershocks and cascades.
inline std::vector<GoldenCase> timeline_cases() {
  using PolicyFactory = std::function<std::unique_ptr<recovery::Policy>()>;
  using DynamicsFactory = std::function<std::unique_ptr<recovery::Dynamics>()>;
  const PolicyFactory replan = [] {
    return std::make_unique<recovery::ReplanPolicy>();
  };
  const PolicyFactory list = [] {
    return std::make_unique<recovery::ListOrderPolicy>();
  };
  std::vector<GoldenCase> cases;
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    const std::uint64_t base = seed - 40;
    const auto add = [&](bool bc, const std::string& name,
                         PolicyFactory policy, DynamicsFactory dynamics,
                         std::uint64_t rng_seed) {
      cases.push_back(
          {std::to_string(seed) + (bc ? " bell-canada " : " er ") + name,
           [=] {
             const core::RecoveryProblem problem =
                 bc ? bell_canada_scenario(seed) : er_scenario(seed);
             auto p = policy();
             auto d = dynamics();
             util::Rng rng(rng_seed);
             return timeline_record(
                 recovery::Timeline(problem, *p, *d, evolving_options())
                     .run(rng));
           }});
    };
    add(false, "replan+aftershock", replan, make_aftershocks, base * 31 + 7);
    add(false, "list+cascade", list, make_cascade, base * 31 + 7);
    add(true, "replan+cascade", replan, make_cascade, base * 17 + 3);
    add(true, "list+aftershock", list, make_aftershocks, base * 17 + 3);
  }
  return cases;
}

// --- netrecd request path -----------------------------------------------------

/// netrecd's test instance: Bell-Canada with a small demand set (three
/// pairs of 6 units, demand seed 7) — rich enough for real plans, small
/// enough that a solve is test-suite cheap.
inline core::RecoveryProblem serve_bell_problem() {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng rng(7);
  p.demands = scenario::far_apart_demands(p.graph, 3, 6.0, rng);
  return p;
}

/// `fraction` of `n` ids, in draw order (unsorted, as a client may send).
inline util::Json damage_ids(util::Rng& rng, std::size_t n, double fraction) {
  const auto k = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(n)));
  util::Json ids = util::Json::array();
  for (std::size_t i : rng.sample_without_replacement(n, k)) ids.push_back(i);
  return ids;
}

/// One seeded damage state as a plan-request body.  `variant` is "isp"
/// (ids only, the netrec-bench body shape) or a timeline policy ("replay",
/// "replan") with every timeline option spelled out.
inline util::Json serve_request_body(const core::RecoveryProblem& p,
                                     double fraction, std::uint64_t seed,
                                     std::uint64_t state,
                                     const std::string& variant,
                                     std::size_t stage_budget,
                                     std::size_t max_stages) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + state);
  util::Json body = util::Json::object();
  body.set("broken_nodes", damage_ids(rng, p.graph.num_nodes(), fraction));
  body.set("broken_edges", damage_ids(rng, p.graph.num_edges(), fraction));
  if (variant != "isp") {
    body.set("mode", "timeline");
    body.set("policy", variant);
    body.set("stage_budget", stage_budget);
    body.set("max_stages", max_stages);
    body.set("seed", static_cast<double>(seed));
  }
  return body;
}

/// What netrecd derives from one request body: the body bytes, the parsed
/// request's canonical key and fingerprint, and an FNV-1a-64 digest and
/// size of the solved payload's dump.  `solve_threads` sizes the engine's
/// intra-solve pool; the record is the same at any count.
inline std::string serve_record(const core::RecoveryProblem& p,
                                const util::Json& body,
                                std::size_t solve_threads = 1) {
  const std::string text = body.dump();
  const serve::PlanRequest request =
      serve::parse_plan_request(util::Json::parse(text), p);
  serve::PlanningEngine engine(
      p, serve::EngineOptions{.solve_threads = solve_threads});
  const std::string payload = engine.solve(request).payload.dump();
  Fnv1a64 digest;
  digest.add_text(payload);
  return "body " + text + "\nkey " + serve::canonical_key(request) +
         "\nfingerprint " + serve::fingerprint(request) + "\npayload " +
         digest.str() + " " + std::to_string(payload.size()) + "\n";
}

/// Two damage states per seed (1 and the held-out 104729) on Bell-Canada
/// and the CAIDA-like preload, each in isp mode and in timeline mode with
/// the replay and replan policies, solved at `solve_threads`.
inline std::vector<GoldenCase> serve_cases(std::size_t solve_threads = 1) {
  struct Instance {
    const char* name;
    core::RecoveryProblem (*problem)();
    double fraction;
    std::size_t stage_budget;
    std::size_t max_stages;
  };
  static const Instance kInstances[] = {
      {"bell-canada", serve_bell_problem, 0.15, 2, 16},
      {"caida", serve_caida_problem, 0.2, 8, 6},
  };
  std::vector<GoldenCase> cases;
  for (const Instance& in : kInstances) {
    for (const std::uint64_t seed : {1ULL, 104729ULL}) {
      for (std::uint64_t state = 0; state < 2; ++state) {
        for (const char* variant : {"isp", "replay", "replan"}) {
          cases.push_back(
              {std::string(in.name) + " seed " + std::to_string(seed) +
                   " state " + std::to_string(state) + " " + variant,
               [in, seed, state, variant, solve_threads] {
                 const core::RecoveryProblem p = in.problem();
                 return serve_record(
                     p,
                     serve_request_body(p, in.fraction, seed, state, variant,
                                        in.stage_budget, in.max_stages),
                     solve_threads);
               }});
        }
      }
    }
  }
  return cases;
}

}  // namespace netrec::test
