// Golden corpora: frozen reference outputs of ISP, the graph kernels and the
// staged-recovery Timeline, stored as text records under tests/golden/.
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
#include "graph/betweenness.hpp"
#include "graph/dijkstra.hpp"
#include "graph/gml.hpp"
#include "graph/maxflow.hpp"
#include "graph/simple_paths.hpp"
#include "graph/traversal.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "scenarios.hpp"

namespace netrec::test {

inline constexpr const char* kIspCorpus = "isp_corpus.txt";
inline constexpr const char* kGraphKernels = "graph_kernels.txt";
inline constexpr const char* kTimelineRestoration =
    "timeline_restoration.txt";

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

// --- ISP corpus ----------------------------------------------------------------

/// The option matrix: default engine, both centrality modes, the LP in
/// eager and lazy capacity-row regimes, prune/direct-repair ablations and
/// jittered metrics.
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
    o.lp.eager_capacity_threshold = 0;  // force lazy capacity rows
    combos.emplace_back("lp-lazy-rows", o);
  }
  {
    core::IspOptions o;
    o.lp.seed_paths_per_demand = 0;  // LP starts from an empty column pool
    combos.emplace_back("lp-no-seeds", o);
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

struct IspCase {
  std::string key;  ///< "<seed> <family> <combo>"
  bool bell_canada = false;
  std::uint64_t seed = 0;
  core::IspOptions options;

  core::RecoveryProblem problem() const {
    return bell_canada ? bell_canada_scenario(seed) : er_scenario(seed);
  }
};

/// ER seeds 1-12 and Bell-Canada seeds 1-8 under default options, then ER
/// and Bell-Canada seeds 101-103 and 201-203 under every option combo.
inline std::vector<IspCase> isp_cases() {
  std::vector<IspCase> cases;
  const auto add = [&](bool bc, std::uint64_t seed, const std::string& combo,
                       const core::IspOptions& options) {
    cases.push_back({std::to_string(seed) + (bc ? " bell-canada " : " er ") +
                         combo,
                     bc, seed, options});
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

inline graph::NodeFilter working_node_filter(const graph::Graph& g) {
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
  working.node_ok = working_node_filter(g);
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

inline std::string widest_path_record(const graph::Graph& g) {
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  const auto path = graph::widest_path(graph::GraphView::working(g), 0, last);
  if (!path) return "path none\n";
  return "path " + std::to_string(path->start) + " edges" +
         join_ids(path->edges) + "\n";
}

inline std::string betweenness_record(const graph::Graph& g,
                                      bool node_filter) {
  graph::ViewConfig config;
  config.edge_ok = graph::working_edge_filter(g);
  if (node_filter) config.node_ok = working_node_filter(g);
  config.length = test_length();
  const auto view = graph::GraphView::build(g, config);
  return "scores" + join_hex(graph::betweenness_centrality(view)) + "\n";
}

inline std::string max_flow_record(const graph::Graph& g) {
  graph::ViewConfig working;
  working.edge_ok = graph::working_edge_filter(g);
  working.node_ok = working_node_filter(g);
  const auto view = graph::GraphView::build(g, working);
  const auto last = static_cast<graph::NodeId>(g.num_nodes() - 1);
  const auto flow = graph::max_flow(view, 0, last);
  std::ostringstream out;
  out << "value " << hex(flow.value) << "\nedge_flow";
  for (std::size_t e = 0; e < flow.edge_flow.size(); ++e) {
    if (flow.edge_flow[e] != 0.0) out << " " << e << ":" << hex(flow.edge_flow[e]);
  }
  out << "\n";
  return out.str();
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
  for (std::uint64_t s = 1; s <= 6; ++s) {
    add("widest-path er " + std::to_string(s),
        [s] { return widest_path_record(broken_er(s)); });
  }
  for (std::uint64_t s = 1; s <= 5; ++s) {
    add("betweenness er " + std::to_string(s),
        [s] { return betweenness_record(broken_er(s), false); });
  }
  for (std::uint64_t s = 1; s <= 3; ++s) {
    add("betweenness bell-canada " + std::to_string(s),
        [s] { return betweenness_record(broken_bell_canada(s), true); });
  }
  for (std::uint64_t s = 1; s <= 6; ++s) {
    add("max-flow er " + std::to_string(s),
        [s] { return max_flow_record(broken_er(s, 30, 0.2)); });
  }
  for (std::uint64_t s = 1; s <= 5; ++s) {
    add("successive-paths er " + std::to_string(s),
        [s] { return successive_paths_record(broken_er(s)); });
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
    for (const recovery::RepairAction& a : s.repairs) {
      out << (a.is_node ? " n" : " e") << (a.is_node ? a.node : a.edge);
    }
    out << " routed_after" << join_hex(s.routed_after) << " routed_end "
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

}  // namespace netrec::test
