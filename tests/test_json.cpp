// Tests for the minimal JSON writer/parser behind structured sweep output.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace netrec::util {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(-2.5).dump(), "-2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringsAreEscaped) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  obj.set("zeta", 9);  // overwrite keeps the original position
  EXPECT_EQ(obj.dump(), "{\"zeta\":9,\"alpha\":2,\"mid\":3}");
}

TEST(Json, ParseRoundTripsNestedDocuments) {
  Json doc = Json::object();
  doc.set("name", "sweep");
  doc.set("count", 20);
  doc.set("exact", 0.1);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  Json inner = Json::object();
  inner.set("mean", 13.25);
  arr.push_back(inner);
  doc.set("items", arr);

  const Json parsed = Json::parse(doc.dump());
  EXPECT_TRUE(parsed == doc);
  const Json pretty_parsed = Json::parse(doc.dump(2));
  EXPECT_TRUE(pretty_parsed == doc);
  EXPECT_EQ(parsed.at("items").at(2).at("mean").as_number(), 13.25);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v :
       {0.0, -0.0, 1.0 / 3.0, 1e-9, 123456789.123456,
        -2.2250738585072014e-308, 9007199254740993.0, DBL_MAX, -DBL_MAX,
        std::numeric_limits<double>::denorm_min()}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_EQ(parsed.as_number(), v) << "value " << v;
    EXPECT_EQ(std::signbit(parsed.as_number()), std::signbit(v))
        << "value " << v;
  }
}

TEST(Json, ParseAcceptsRfcNumbers) {
  EXPECT_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
  EXPECT_EQ(Json::parse("-12").as_number(), -12.0);
  EXPECT_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_EQ(Json::parse("1E3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("1e+3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("25e-1").as_number(), 2.5);
  EXPECT_EQ(Json::parse("-0.0e0").as_number(), 0.0);
  EXPECT_EQ(Json::parse("[0,10,-3]").size(), 3u);
  // Integers past 2^53 round to nearest like any other decimal, whether
  // they fit an int64 or not.
  EXPECT_EQ(Json::parse("123456789012345678").as_number(),
            123456789012345678.0);
  EXPECT_EQ(Json::parse("-123456789012345678").as_number(),
            -123456789012345678.0);
  EXPECT_EQ(Json::parse("1234567890123456789").as_number(),
            1234567890123456789.0);
  EXPECT_EQ(Json::parse("99999999999999999999").as_number(), 1e20);
}

TEST(Json, ParseHandlesWhitespaceAndEscapes) {
  const Json parsed =
      Json::parse("  { \"a\\u0041\" : [ true , null ] }  ");
  EXPECT_TRUE(parsed.contains("aA"));
  EXPECT_EQ(parsed.at("aA").size(), 2u);
  EXPECT_TRUE(parsed.at("aA").at(0).as_bool());
  EXPECT_TRUE(parsed.at("aA").at(1).is_null());
}

TEST(Json, SurrogatePairsDecodeToAstralCodePoints) {
  // U+1F600 (😀) arrives as the UTF-16 pair D83D DE00 and must decode to
  // the 4-byte UTF-8 sequence F0 9F 98 80.
  const Json grin = Json::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(grin.as_string(), "\xf0\x9f\x98\x80");
  // Uppercase hex, pair embedded in surrounding text.
  const Json mixed = Json::parse("\"a\\uD83D\\uDE00b\"");
  EXPECT_EQ(mixed.as_string(), "a\xf0\x9f\x98\x80"
                               "b");
  // U+10000, the first astral code point (pair D800 DC00).
  EXPECT_EQ(Json::parse("\"\\ud800\\udc00\"").as_string(),
            "\xf0\x90\x80\x80");
  // The writer emits raw UTF-8, so the decoded value round-trips.
  EXPECT_EQ(Json::parse(grin.dump()).as_string(), grin.as_string());
  EXPECT_EQ(Json::parse(mixed.dump()), mixed);
}

TEST(Json, LoneSurrogatesAreRejected) {
  // Unpaired high surrogate: end of string, non-escape follow-up, or an
  // escape that is not a low surrogate.
  EXPECT_THROW(Json::parse("\"\\ud800\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ud83dx\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ud83d\\n\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ud83d\\u0041\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ud800\\ud800\""), std::runtime_error);
  // Unpaired low surrogate.
  EXPECT_THROW(Json::parse("\"\\udc00\""), std::runtime_error);
  EXPECT_THROW(Json::parse("\"\\ude00abc\""), std::runtime_error);
  // BMP escapes on the surrogate-range boundaries still work.
  EXPECT_EQ(Json::parse("\"\\ud7ff\"").as_string(), "\xed\x9f\xbf");
  EXPECT_EQ(Json::parse("\"\\ue000\"").as_string(), "\xee\x80\x80");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  // Numbers outside the RFC 8259 grammar are errors, not prefixes.
  for (const char* bad :
       {"[1-2]", "[1e]", "[2.5.3]", "+1", "007", ".5", "1.", "-", "-a", "1e+",
        "01", "-01", "[1.e5]", "1.5e", "0x10", "Infinity", "NaN", "--1"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
  // Outside the double range.
  EXPECT_THROW(Json::parse("1e400"), std::runtime_error);
  EXPECT_THROW(Json::parse("-1e400"), std::runtime_error);
  EXPECT_THROW(Json::parse("1e-400"), std::runtime_error);
}

TEST(Json, ParseRejectsDuplicateKeys) {
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"broken_nodes\":[1],\"broken_nodes\":[2]}"),
               std::runtime_error);
  // Also when nested, and spelled with an escape.
  EXPECT_THROW(Json::parse("[{\"k\":{\"x\":1,\"y\":2,\"x\":3}}]"),
               std::runtime_error);
  EXPECT_THROW(Json::parse("{\"aA\":1,\"a\\u0041\":2}"), std::runtime_error);
  // Among many keys.
  std::string big = "{";
  for (int i = 0; i < 40; ++i) big += "\"k" + std::to_string(i) + "\":0,";
  EXPECT_EQ(Json::parse(big + "\"last\":0}").size(), 41u);
  EXPECT_THROW(Json::parse(big + "\"k17\":0}"), std::runtime_error);
  // The same key in sibling objects is fine.
  EXPECT_EQ(Json::parse("[{\"a\":1},{\"a\":2}]").size(), 2u);
}

TEST(Json, ParseBoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), std::runtime_error);
  // Deep enough to overflow a recursive parser's stack if unchecked.
  EXPECT_THROW(Json::parse(std::string(1 << 20, '[')), std::runtime_error);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json(1.0).as_string(), std::runtime_error);
  EXPECT_THROW(Json("x").as_number(), std::runtime_error);
  EXPECT_THROW(Json(true).at("k"), std::runtime_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
}

TEST(Json, FileRoundTrip) {
  Json doc = Json::object();
  doc.set("answer", 42);
  const std::string path =
      ::testing::TempDir() + "netrec_json_roundtrip.json";
  write_json_file(path, doc);
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  const Json loaded = Json::parse(text.str());
  EXPECT_TRUE(loaded == doc);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netrec::util
