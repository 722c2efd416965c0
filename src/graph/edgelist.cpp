#include "graph/edgelist.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"

namespace netrec::graph {

namespace {
/// Repair cost for the (implicit) nodes.
constexpr double kNodeRepairCost = 1.0;
}  // namespace

Graph parse_edge_list(const std::string& text,
                      const EdgeListOptions& options) {
  struct Row {
    long long u, v;
    double capacity, repair_cost;
  };
  std::vector<Row> rows;
  long long max_id = -1;

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    long long u = 0;
    long long v = 0;
    if (!(fields >> u)) continue;  // blank / comment-only line
    if (!(fields >> v)) {
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": expected 'u v [capacity [repair_cost]]'");
    }
    Row row{u, v, options.default_capacity, options.default_repair_cost};
    fields >> row.capacity >> row.repair_cost;  // optional, keep defaults
    if (fields.bad() || (!fields.eof() && fields.fail())) {
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": malformed numeric field");
    }
    if (u < 0 || v < 0) {
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": negative node id");
    }
    max_id = std::max({max_id, u, v});
    rows.push_back(row);
  }

  Builder builder;
  builder.reserve(static_cast<std::size_t>(max_id + 1), rows.size());
  builder.add_nodes(static_cast<std::size_t>(max_id + 1), kNodeRepairCost);
  for (const Row& row : rows) {
    builder.add_edge(static_cast<NodeId>(row.u), static_cast<NodeId>(row.v),
                     row.capacity, row.repair_cost);
  }
  return builder.finalize();
}

Graph load_edge_list_file(const std::string& path,
                          const EdgeListOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open edge list: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_edge_list(buffer.str(), options);
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream out;
  out << "# " << g.num_nodes() << " nodes, " << g.num_edges() << " edges\n";
  char buf[128];
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto id = static_cast<EdgeId>(e);
    const auto [u, v] = g.edge_endpoints(id);
    std::snprintf(buf, sizeof buf, "%d %d %.17g %.17g\n", u, v,
                  g.edge_capacity(id), g.edge_repair_cost(id));
    out << buf;
  }
  return out.str();
}

void save_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write edge list: " + path);
  out << to_edge_list(g);
  if (!out) throw std::runtime_error("short write: " + path);
}

}  // namespace netrec::graph
