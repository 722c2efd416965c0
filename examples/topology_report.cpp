// Topology report: statistics of the three experiment topologies (the
// textual counterpart of the paper's Fig. 8 topology plot), plus GML export
// so the exact graphs used in a run can be archived or visualised elsewhere.
//
//   $ ./topology_report [--export-dir /tmp] [--caida-seed 77]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "netrec.hpp"
#include "util/flags.hpp"

namespace {

using namespace netrec;

void report(const char* name, const graph::Graph& g) {
  std::printf("\n%s\n", name);
  std::printf("  nodes: %zu, edges: %zu (m/n = %.2f)\n", g.num_nodes(),
              g.num_edges(),
              static_cast<double>(g.num_edges()) /
                  static_cast<double>(g.num_nodes()));
  const graph::GraphView view = graph::GraphView::build(g);
  std::printf("  hop diameter: %d\n", graph::hop_diameter(view));

  std::vector<std::size_t> degree(g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    degree[i] = g.degree(static_cast<graph::NodeId>(i));
  }
  std::sort(degree.begin(), degree.end());
  std::printf("  degree min/median/max: %zu / %zu / %zu\n", degree.front(),
              degree[degree.size() / 2], degree.back());

  double total_capacity = 0.0;
  double min_cap = 1e18;
  double max_cap = 0.0;
  for (double cap : g.edge_capacities()) {
    total_capacity += cap;
    min_cap = std::min(min_cap, cap);
    max_cap = std::max(max_cap, cap);
  }
  std::printf("  capacity min/mean/max: %.0f / %.1f / %.0f\n", min_cap,
              total_capacity / static_cast<double>(g.num_edges()), max_cap);

  const auto labels = graph::connected_components(view);
  int components = 0;
  for (int l : labels) components = std::max(components, l + 1);
  std::printf("  connected components: %d\n", components);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("export-dir", "", "write each topology as GML to this dir");
  flags.define("caida-seed", "77", "seed of the CAIDA-like generator");
  flags.define("er-p", "0.5", "Erdos-Renyi edge probability");
  if (!flags.parse(argc, argv)) {
    std::fputs(flags.usage(argv[0]).c_str(), stdout);
    return 0;
  }

  const graph::Graph bell = topology::make_topology({topology::BellCanadaOptions{}});
  report("Bell-Canada-like (Section VII-A)", bell);

  util::Rng er_rng(5);
  topology::ErdosRenyiOptions eopt;
  eopt.edge_probability = flags.get_double("er-p");
  const graph::Graph er = topology::make_topology(eopt, er_rng);
  report("Erdos-Renyi n=100 (Section VII-B)", er);

  util::Rng caida_rng(
      static_cast<std::uint64_t>(flags.get_int("caida-seed")));
  const graph::Graph caida = topology::make_topology(topology::CaidaLikeOptions{}, caida_rng);
  report("CAIDA-like AS topology (Section VII-C)", caida);

  const std::string dir = flags.get("export-dir");
  if (!dir.empty()) {
    graph::save_gml_file(bell, dir + "/bell_canada_like.gml");
    graph::save_gml_file(er, dir + "/erdos_renyi.gml");
    graph::save_gml_file(caida, dir + "/caida_like.gml");
    std::printf("\nGML files written to %s\n", dir.c_str());
  }
  return 0;
}
