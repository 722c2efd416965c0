#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace netrec::util {

namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kNumber:
      return "number";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::runtime_error(std::string("Json: expected ") + want + ", have " +
                           type_name(got));
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; emit null like most lenient writers.
    out += "null";
    return;
  }
  // std::to_chars with a precision prints exactly what printf's %.*f /
  // %.*g would.
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::fixed, 0)
                          .ptr;
    out.append(buf, static_cast<std::size_t>(end - buf));
    return;
  }
  // Shortest of %.15g, %.16g and %.17g that reads back as the same double
  // (%.17g always does).
  for (int precision = 15; precision <= 17; ++precision) {
    const char* end = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, precision)
                          .ptr;
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(buf, end, parsed);
    if (precision == 17 || (ec == std::errc() && parsed == value)) {
      out.append(buf, static_cast<std::size_t>(end - buf));
      return;
    }
  }
}

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == '\v' ||
         c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

/// Recursive-descent parser over one document; builds the variant members
/// in place.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Json parse_document() {
    Json value;
    parse_value(value, 0);
    skip_whitespace();
    if (p_ != end_) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("Json::parse: " + why + " at offset " +
                             std::to_string(p_ - begin_));
  }

  void skip_whitespace() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  char peek() {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool consume_literal(std::string_view literal) {
    if (static_cast<std::size_t>(end_ - p_) < literal.size() ||
        std::string_view(p_, literal.size()) != literal) {
      return false;
    }
    p_ += literal.size();
    return true;
  }

  void parse_value(Json& out, int depth) {
    skip_whitespace();
    const char c = peek();
    if (c == '{') return parse_object(out, depth + 1);
    if (c == '[') return parse_array(out, depth + 1);
    if (c == '"') {
      parse_string(out.value_.emplace<std::string>());
      return;
    }
    if (c == '-' || is_digit(c)) {
      out.value_ = parse_number();
      return;
    }
    if (consume_literal("true")) {
      out.value_ = true;
    } else if (consume_literal("false")) {
      out.value_ = false;
    } else if (consume_literal("null")) {
      out.value_ = std::monostate{};
    } else {
      fail("expected a value");
    }
  }

  /// Four hex digits of a \u escape; advances past them.
  unsigned parse_hex4() {
    if (end_ - p_ < 4) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = *p_++;
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return code;
  }

  void parse_string(std::string& out) {
    expect('"');
    for (;;) {
      // Copy the run of plain characters up to the next quote or escape.
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out.append(run, static_cast<std::size_t>(p_ - run));
      if (p_ == end_) fail("unterminated string");
      if (*p_++ == '"') return;
      if (p_ == end_) fail("unterminated escape");
      const char esc = *p_++;
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u':
          append_code_point(out);
          break;
        default:
          fail("unknown escape");
      }
    }
  }

  /// The code point of a \u escape (p_ just past the 'u'), as UTF-8.  One
  /// \uXXXX names a BMP code point; an astral code point arrives as a
  /// UTF-16 surrogate pair.  Lone surrogates are not code points — decoding
  /// them would emit invalid UTF-8 — so they are rejected.
  void append_code_point(std::string& out) {
    const unsigned first = parse_hex4();
    unsigned code = first;
    if (first >= 0xd800 && first <= 0xdbff) {
      if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
        fail("unpaired high surrogate in \\u escape");
      }
      p_ += 2;
      const unsigned second = parse_hex4();
      if (second < 0xdc00 || second > 0xdfff) {
        fail("high surrogate not followed by a low surrogate");
      }
      code = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
    } else if (first >= 0xdc00 && first <= 0xdfff) {
      fail("unpaired low surrogate in \\u escape");
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  /// At least one digit, then the rest of the run.
  void digits() {
    if (p_ == end_ || !is_digit(*p_)) fail("malformed number");
    while (p_ != end_ && is_digit(*p_)) ++p_;
  }

  /// Scans exactly the RFC 8259 number token, then converts that token
  /// with std::from_chars, which must consume all of it.  An integer token
  /// short enough for int64 converts as an integer: the int64 -> double
  /// cast rounds to nearest like the decimal conversion does, so the value
  /// is the same, only cheaper to get.
  double parse_number() {
    const char* start = p_;
    if (*p_ == '-') ++p_;
    const char* int_start = p_;
    if (p_ != end_ && *p_ == '0') {
      ++p_;  // no leading zeros: "007" ends after the first '0'
    } else {
      digits();
    }
    bool integral = p_ - int_start <= 18;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      digits();
      integral = false;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      digits();
      integral = false;
    }
    if (integral) {
      std::int64_t whole = 0;
      const auto [ptr, ec] = std::from_chars(start, p_, whole);
      if (ec != std::errc() || ptr != p_) fail("malformed number");
      // "-0" is the double -0.0, which no int64 holds.
      return whole == 0 && *start == '-' ? -0.0 : static_cast<double>(whole);
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(start, p_, value);
    if (ec == std::errc::result_out_of_range) {
      fail("number out of range");
    }
    if (ec != std::errc() || ptr != p_) fail("malformed number");
    return value;
  }

  void check_depth(int depth) const {
    if (depth > Json::kMaxDepth) fail("nesting too deep");
  }

  void parse_array(Json& out, int depth) {
    check_depth(depth);
    expect('[');
    Json::Array& items = out.value_.emplace<Json::Array>();
    skip_whitespace();
    if (peek() == ']') {
      ++p_;
      return;
    }
    for (;;) {
      parse_value(items.emplace_back(), depth);
      skip_whitespace();
      const char c = peek();
      ++p_;
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  void parse_object(Json& out, int depth) {
    check_depth(depth);
    expect('{');
    Json::Object& members = out.value_.emplace<Json::Object>();
    skip_whitespace();
    if (peek() == '}') {
      ++p_;
      return;
    }
    for (;;) {
      skip_whitespace();
      auto& [key, value] = members.emplace_back();
      parse_string(key);
      skip_whitespace();
      expect(':');
      parse_value(value, depth);
      skip_whitespace();
      const char c = peek();
      ++p_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    reject_duplicate_keys(members);
  }

  /// A repeated key is an error: last-wins would let `{"broken_nodes":[1],
  /// "broken_nodes":[2]}` silently drop half a request.  Sorted, so a
  /// hostile document with many keys costs n log n, not n^2.
  void reject_duplicate_keys(const Json::Object& members) const {
    if (members.size() < 2) return;
    std::vector<std::string_view> keys;
    keys.reserve(members.size());
    for (const auto& member : members) keys.emplace_back(member.first);
    std::sort(keys.begin(), keys.end());
    const auto it = std::adjacent_find(keys.begin(), keys.end());
    if (it != keys.end()) {
      fail("duplicate object key '" + std::string(*it) + "'");
    }
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

Json Json::array() {
  Json j;
  j.value_.emplace<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.value_.emplace<Object>();
  return j;
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  type_error("bool", type());
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  type_error("number", type());
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  type_error("string", type());
}

void Json::push_back(Json value) {
  if (is_null()) value_.emplace<Array>();
  Array* items = std::get_if<Array>(&value_);
  if (items == nullptr) type_error("array", type());
  items->push_back(std::move(value));
}

std::size_t Json::size() const {
  if (const Array* items = std::get_if<Array>(&value_)) return items->size();
  if (const Object* members = std::get_if<Object>(&value_)) {
    return members->size();
  }
  type_error("array or object", type());
}

const Json& Json::at(std::size_t index) const {
  const Array* items = std::get_if<Array>(&value_);
  if (items == nullptr) type_error("array", type());
  return items->at(index);
}

const Json* Json::find(std::string_view key) const {
  const Object* members = std::get_if<Object>(&value_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  if (is_null()) value_.emplace<Object>();
  Object* members = std::get_if<Object>(&value_);
  if (members == nullptr) type_error("object", type());
  for (auto& [name, existing] : *members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members->emplace_back(key, std::move(value));
}

bool Json::contains(std::string_view key) const { return find(key) != nullptr; }

const Json& Json::at(std::string_view key) const {
  if (type() != Type::kObject) type_error("object", type());
  const Json* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("Json: missing key '" + std::string(key) + "'");
  }
  return *value;
}

std::vector<std::string> Json::keys() const {
  const Object* members = std::get_if<Object>(&value_);
  if (members == nullptr) type_error("object", type());
  std::vector<std::string> out;
  out.reserve(members->size());
  for (const auto& member : *members) out.push_back(member.first);
  return out;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int levels) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      return;
    case Type::kNumber:
      append_number(out, std::get<double>(value_));
      return;
    case Type::kString:
      append_escaped(out, std::get<std::string>(value_));
      return;
    case Type::kArray: {
      const Array& items = std::get<Array>(value_);
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        items[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      const Object& members = std::get<Object>(value_);
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        append_escaped(out, members[i].first);
        out += ':';
        if (indent > 0) out += ' ';
        members[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      return;
    }
  }
}

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_json_file: cannot open " + path);
  out << value.dump(2);
  if (!out) throw std::runtime_error("write_json_file: write failed: " + path);
}

}  // namespace netrec::util
