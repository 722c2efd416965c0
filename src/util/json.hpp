// Minimal JSON value type with serialisation and parsing.
//
// Backs the scenario engine's structured emission (SweepRunner --json), the
// netrecd wire protocol and the benchmarks' result objects.
//
// Representation: one std::variant over null, bool, double, string, array
// and object, listed in Type order (so type() is the variant's index).  An
// object is an insertion-ordered vector of (key, value) members: emission
// is deterministic and follows first insertion, and lookups scan the
// members, which is the fast path for the handful of keys our documents
// carry.
//
// The parser reads untrusted netrecd client input and is strict:
//   * numbers follow the RFC 8259 grammar exactly
//       [ "-" ] ( "0" / digit1-9 *digit ) [ "." 1*digit ]
//       [ ( "e" / "E" ) [ "+" / "-" ] 1*digit ]
//     and are read with std::from_chars over that token, so "+1", "007",
//     ".5", "1.", "1e", "1-2" and "2.5.3" are errors rather than prefixes;
//     a value outside the double range (1e400, 1e-400) is an error, while
//     subnormals round-trip;
//   * an object may not repeat a key (a repeated key is an error, never
//     last-wins);
//   * lone UTF-16 surrogates in \u escapes are errors;
//   * nesting deeper than kMaxDepth arrays/objects is an error.
// Whitespace between tokens is space, tab, CR, LF, VT or FF.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace netrec::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Deepest array/object nesting Json::parse accepts.
  static constexpr int kMaxDepth = 512;

  Json() = default;
  Json(bool value) : value_(std::in_place_type<bool>, value) {}  // NOLINT
  Json(double value) : value_(std::in_place_type<double>, value) {}  // NOLINT
  Json(int value) : Json(static_cast<double>(value)) {}  // NOLINT
  Json(std::size_t value) : Json(static_cast<double>(value)) {}  // NOLINT
  Json(const char* value)  // NOLINT
      : value_(std::in_place_type<std::string>, value) {}
  Json(std::string value)  // NOLINT
      : value_(std::in_place_type<std::string>, std::move(value)) {}

  static Json array();
  static Json object();

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access; push_back switches a null value to an array.
  void push_back(Json value);
  std::size_t size() const;
  const Json& at(std::size_t index) const;

  /// Object access; set() switches a null value to an object and keeps
  /// first-insertion key order for deterministic emission.
  void set(const std::string& key, Json value);
  bool contains(std::string_view key) const;
  const Json& at(std::string_view key) const;
  std::vector<std::string> keys() const;

  /// Compact serialisation (no spaces); `indent > 0` pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parses a JSON document; throws std::runtime_error on malformed input.
  static Json parse(std::string_view text);

  /// Structural equality (numbers compared exactly, key order significant).
  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  friend class JsonParser;

  const Json* find(std::string_view key) const;
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

/// Writes `value.dump(2)` to `path`; throws std::runtime_error on failure.
void write_json_file(const std::string& path, const Json& value);

}  // namespace netrec::util
