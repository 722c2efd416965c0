#include "graph/gml.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <variant>
#include <vector>

#include "graph/builder.hpp"

namespace netrec::graph {

namespace {

struct Token {
  enum class Kind { kIdentifier, kString, kNumber, kOpen, kClose, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  double number = 0.0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token next() {
    skip_whitespace_and_comments();
    if (pos_ >= text_.size()) return {Token::Kind::kEnd, "", 0.0};
    const char c = text_[pos_];
    if (c == '[') {
      ++pos_;
      return {Token::Kind::kOpen, "[", 0.0};
    }
    if (c == ']') {
      ++pos_;
      return {Token::Kind::kClose, "]", 0.0};
    }
    if (c == '"') return lex_string();
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
        c == '.') {
      return lex_number();
    }
    return lex_identifier();
  }

 private:
  void skip_whitespace_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Token lex_string() {
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      value += text_[pos_++];
    }
    if (pos_ >= text_.size()) {
      throw std::runtime_error("GML: unterminated string literal");
    }
    ++pos_;  // closing quote
    return {Token::Kind::kString, value, 0.0};
  }

  Token lex_number() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    const std::string text = text_.substr(start, pos_ - start);
    try {
      return {Token::Kind::kNumber, text, std::stod(text)};
    } catch (const std::exception&) {
      throw std::runtime_error("GML: malformed number '" + text + "'");
    }
  }

  Token lex_identifier() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      throw std::runtime_error(std::string("GML: unexpected character '") +
                               text_[pos_] + "'");
    }
    return {Token::Kind::kIdentifier, text_.substr(start, pos_ - start), 0.0};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

using Value = std::variant<double, std::string>;
using Record = std::multimap<std::string, Value>;

/// Parses one `[ key value ... ]` block; nested blocks are parsed
/// recursively but flattened away unless the caller asks for them.
Record parse_block(Lexer& lexer,
                   std::vector<std::pair<std::string, Record>>* nested) {
  Record record;
  while (true) {
    Token key = lexer.next();
    if (key.kind == Token::Kind::kClose) return record;
    if (key.kind == Token::Kind::kEnd) {
      throw std::runtime_error("GML: unbalanced brackets");
    }
    if (key.kind != Token::Kind::kIdentifier) {
      throw std::runtime_error("GML: expected attribute name, got '" +
                               key.text + "'");
    }
    Token value = lexer.next();
    switch (value.kind) {
      case Token::Kind::kNumber:
        record.emplace(key.text, value.number);
        break;
      case Token::Kind::kString:
      case Token::Kind::kIdentifier:
        record.emplace(key.text, value.text);
        break;
      case Token::Kind::kOpen: {
        Record child = parse_block(lexer, nested);
        if (nested) nested->emplace_back(key.text, std::move(child));
        break;
      }
      default:
        throw std::runtime_error("GML: expected value for attribute '" +
                                 key.text + "'");
    }
  }
}

std::optional<double> get_number(const Record& r, const std::string& key) {
  auto it = r.find(key);
  if (it == r.end()) return std::nullopt;
  if (const double* d = std::get_if<double>(&it->second)) return *d;
  // Topology Zoo sometimes quotes numeric values.
  try {
    return std::stod(std::get<std::string>(it->second));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::string> get_string(const Record& r,
                                      const std::string& key) {
  auto it = r.find(key);
  if (it == r.end()) return std::nullopt;
  if (const std::string* s = std::get_if<std::string>(&it->second)) return *s;
  return std::nullopt;
}

/// Guard with the same rules Builder::finalize() enforces: numeric
/// attributes that feed capacities, repair costs or coordinates must be
/// finite, and the first two nonnegative — `nan`/`inf` lex as identifiers
/// and quoted numbers pass std::stod, so without this check they would flow
/// straight into the algorithms as UB fuel.  Failing here names the GML
/// element instead of the Builder's internal id.
double checked_number(double value, const char* what, const char* element,
                      long long id, bool require_nonnegative) {
  if (!std::isfinite(value) || (require_nonnegative && value < 0.0)) {
    std::ostringstream message;
    message << "GML: " << element << ' ' << id << " has invalid " << what
            << " (" << value << ')';
    throw std::runtime_error(message.str());
  }
  return value;
}

/// Node-id conversion guard: the double must be finite AND representable as
/// long long — a finite 1e19 would make the static_cast itself UB.
long long checked_id(const std::optional<double>& value, const char* what) {
  // 2^63 exactly; doubles at or beyond this bound do not fit a long long.
  constexpr double kIdBound = 9223372036854775808.0;
  if (!value || !std::isfinite(*value) || *value >= kIdBound ||
      *value < -kIdBound) {
    throw std::runtime_error(std::string("GML: ") + what);
  }
  return static_cast<long long>(*value);
}

}  // namespace

Graph parse_gml(const std::string& text, const GmlOptions& options) {
  Lexer lexer(text);

  // Find the top-level `graph [`.
  Token tok = lexer.next();
  while (tok.kind != Token::Kind::kEnd) {
    if (tok.kind == Token::Kind::kIdentifier && tok.text == "graph") break;
    tok = lexer.next();
  }
  if (tok.kind == Token::Kind::kEnd) {
    throw std::runtime_error("GML: no 'graph' block found");
  }
  if (lexer.next().kind != Token::Kind::kOpen) {
    throw std::runtime_error("GML: expected '[' after 'graph'");
  }

  std::vector<std::pair<std::string, Record>> blocks;
  parse_block(lexer, &blocks);

  Builder builder;
  std::map<long long, NodeId> id_map;
  // Broken flags are state, not topology: collected here, applied to the
  // built graph.
  std::vector<NodeId> broken_nodes;
  std::vector<EdgeId> broken_edges;
  // First pass: nodes (GML allows interleaving, so collect then wire edges).
  for (const auto& [kind, record] : blocks) {
    if (kind != "node") continue;
    const auto id_key =
        checked_id(get_number(record, "id"), "node without (numeric) id");
    const std::string label =
        get_string(record, "label").value_or("n" + std::to_string(id_key));
    const double x = checked_number(
        get_number(record, "Longitude")
            .value_or(get_number(record, "x").value_or(0.0)),
        "coordinate", "node", id_key, /*require_nonnegative=*/false);
    const double y = checked_number(
        get_number(record, "Latitude")
            .value_or(get_number(record, "y").value_or(0.0)),
        "coordinate", "node", id_key, /*require_nonnegative=*/false);
    const double cost = checked_number(
        get_number(record, "cost").value_or(options.default_repair_cost),
        "cost", "node", id_key, /*require_nonnegative=*/true);
    const NodeId node = builder.add_node(label, x, y, cost);
    if (!id_map.emplace(id_key, node).second) {
      throw std::runtime_error("GML: duplicate node id " +
                               std::to_string(id_key));
    }
    if (get_number(record, "broken").value_or(0.0) != 0.0) {
      broken_nodes.push_back(node);
    }
  }
  std::unordered_set<std::uint64_t> placed;  // endpoint pairs wired so far
  for (const auto& [kind, record] : blocks) {
    if (kind != "edge") continue;
    const auto source_key =
        checked_id(get_number(record, "source"),
                   "edge without (numeric) source/target");
    const auto target_key =
        checked_id(get_number(record, "target"),
                   "edge without (numeric) source/target");
    const auto su = id_map.find(source_key);
    const auto sv = id_map.find(target_key);
    if (su == id_map.end() || sv == id_map.end()) {
      throw std::runtime_error("GML: edge references unknown node");
    }
    if (su->second == sv->second) continue;               // drop self-loops
    // Dedupe parallel edges: the first one wins.
    if (!placed.insert(endpoint_key(su->second, sv->second)).second) continue;
    const double capacity = checked_number(
        get_number(record, "capacity")
            .value_or(get_number(record, "LinkSpeed")
                          .value_or(options.default_capacity)),
        "capacity", "edge from node", source_key,
        /*require_nonnegative=*/true);
    const double cost = checked_number(
        get_number(record, "cost").value_or(options.default_repair_cost),
        "cost", "edge from node", source_key, /*require_nonnegative=*/true);
    const EdgeId edge =
        builder.add_edge(su->second, sv->second, capacity, cost);
    if (get_number(record, "broken").value_or(0.0) != 0.0) {
      broken_edges.push_back(edge);
    }
  }
  Graph g = builder.finalize();
  for (NodeId n : broken_nodes) g.set_node_broken(n, true);
  for (EdgeId e : broken_edges) g.set_edge_broken(e, true);
  return g;
}

Graph load_gml_file(const std::string& path, const GmlOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("GML: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_gml(buffer.str(), options);
}

std::string to_gml(const Graph& g) {
  std::ostringstream out;
  out << "graph [\n  directed 0\n";
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    out << "  node [\n    id " << i << "\n    label \"" << g.node_name(id)
        << "\"\n    x " << g.node_x(id) << "\n    y " << g.node_y(id)
        << "\n    cost " << g.node_repair_cost(id) << "\n    broken "
        << (g.node_broken(id) ? 1 : 0) << "\n  ]\n";
  }
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto id = static_cast<EdgeId>(i);
    out << "  edge [\n    source " << g.edge_u(id) << "\n    target "
        << g.edge_v(id) << "\n    capacity " << g.edge_capacity(id)
        << "\n    cost " << g.edge_repair_cost(id) << "\n    broken "
        << (g.edge_broken(id) ? 1 : 0) << "\n  ]\n";
  }
  out << "]\n";
  return out.str();
}

void save_gml_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("GML: cannot write '" + path + "'");
  out << to_gml(g);
}

}  // namespace netrec::graph
