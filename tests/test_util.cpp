// Tests for the util substrate: deterministic RNG, streaming statistics,
// CSV escaping, table rendering and flag parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace netrec::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(23);
  parent_copy.fork();
  EXPECT_EQ(parent.next(), parent_copy.next());  // forking is deterministic
  EXPECT_NE(child.next(), parent.next());
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(10, 6);
  EXPECT_EQ(sample.size(), 6u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (std::size_t v : sample) EXPECT_LT(v, 10u);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(MetricSet, AccumulatesByName) {
  MetricSet m;
  m.add("repairs", 10.0);
  m.add("repairs", 20.0);
  m.add("time", 1.5);
  EXPECT_DOUBLE_EQ(m.get("repairs").mean(), 15.0);
  EXPECT_TRUE(m.has("time"));
  EXPECT_FALSE(m.has("missing"));
  EXPECT_THROW(m.get("missing"), std::out_of_range);
  EXPECT_EQ(m.names().size(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 2), "0.12");  // round-half-to-even
  EXPECT_EQ(format_double(-0.0), "0");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, PadsMissingCells) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Flags, ParsesBothSyntaxes) {
  Flags flags;
  flags.define("alpha", "1", "a");
  flags.define("beta", "x", "b");
  const char* argv[] = {"prog", "--alpha", "7", "--beta=hello"};
  ASSERT_TRUE(flags.parse(4, argv));
  EXPECT_EQ(flags.get_int("alpha"), 7);
  EXPECT_EQ(flags.get("beta"), "hello");
}

TEST(Flags, DefaultsApplyWhenAbsent) {
  Flags flags;
  flags.define("gamma", "2.5", "g");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_DOUBLE_EQ(flags.get_double("gamma"), 2.5);
}

TEST(Flags, RejectsUnknownAndMalformed) {
  Flags flags;
  flags.define("known", "1", "k");
  const char* bad1[] = {"prog", "--unknown", "3"};
  EXPECT_THROW(flags.parse(3, bad1), std::invalid_argument);
  const char* bad2[] = {"prog", "--known"};
  EXPECT_THROW(flags.parse(2, bad2), std::invalid_argument);
  const char* bad3[] = {"prog", "stray"};
  EXPECT_THROW(flags.parse(2, bad3), std::invalid_argument);
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags;
  flags.define("x", "1", "x");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
  EXPECT_NE(flags.usage("prog").find("--x"), std::string::npos);
}

TEST(Flags, ParsesDoubleLists) {
  Flags flags;
  flags.define("sweep", "1,2.5,4", "s");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  const auto values = flags.get_double_list("sweep");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 2.5);
}

TEST(Flags, RejectsTrailingGarbageAndEmptyNumerics) {
  Flags flags;
  flags.define("n", "1", "int flag");
  flags.define("x", "1.0", "double flag");
  const char* argv[] = {"prog", "--n", "7x", "--x", "2.5abc"};
  ASSERT_TRUE(flags.parse(5, argv));
  // std::stoi/std::stod would silently truncate both; strict parsing
  // refuses them with a clear diagnostic instead.
  EXPECT_THROW(flags.get_int("n"), std::invalid_argument);
  EXPECT_THROW(flags.get_double("x"), std::invalid_argument);

  Flags empty_flags;
  empty_flags.define("n", "", "int flag");
  empty_flags.define("x", "", "double flag");
  const char* none[] = {"prog"};
  ASSERT_TRUE(empty_flags.parse(1, none));
  EXPECT_THROW(empty_flags.get_int("n"), std::invalid_argument);
  EXPECT_THROW(empty_flags.get_double("x"), std::invalid_argument);
}

TEST(Flags, RejectsTrailingWhitespaceAndPartialExponent) {
  Flags flags;
  flags.define("n", "1", "int flag");
  flags.define("x", "1.0", "double flag");
  const char* argv[] = {"prog", "--n=7 ", "--x=1.5e"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_THROW(flags.get_int("n"), std::invalid_argument);
  EXPECT_THROW(flags.get_double("x"), std::invalid_argument);
  // Leading whitespace is consumed by the numeric parser itself and stays
  // accepted, matching the historical behaviour.
  Flags ok;
  ok.define("n", " 7", "int flag");
  const char* none[] = {"prog"};
  ASSERT_TRUE(ok.parse(1, none));
  EXPECT_EQ(ok.get_int("n"), 7);
}

TEST(Flags, RejectsDuplicateFlags) {
  // "--n 3 ... --n 5" is an editing mistake, not a request for last-wins.
  Flags flags;
  flags.define("n", "1", "n");
  flags.define("m", "2", "m");
  const char* dup[] = {"prog", "--n", "3", "--m=4", "--n=5"};
  EXPECT_THROW(flags.parse(5, dup), std::invalid_argument);
  // Both syntaxes name the same flag.
  const char* mixed[] = {"prog", "--n=3", "--n", "5"};
  EXPECT_THROW(flags.parse(4, mixed), std::invalid_argument);
  // A fresh parse call (new command line) is not a duplicate of the last.
  Flags fresh;
  fresh.define("n", "1", "n");
  const char* once[] = {"prog", "--n", "3"};
  ASSERT_TRUE(fresh.parse(3, once));
  ASSERT_TRUE(fresh.parse(3, once));
  EXPECT_EQ(fresh.get_int("n"), 3);
}

TEST(Flags, BoolParsingIsStrict) {
  Flags flags;
  flags.define("verbose", "false", "v");
  for (const char* token : {"1", "true", "yes", "on"}) {
    Flags f;
    f.define("verbose", "false", "v");
    const std::string value = std::string("--verbose=") + token;
    const char* argv[] = {"prog", value.c_str()};
    ASSERT_TRUE(f.parse(2, argv));
    EXPECT_TRUE(f.get_bool("verbose")) << token;
  }
  for (const char* token : {"0", "false", "no", "off"}) {
    Flags f;
    f.define("verbose", "true", "v");
    const std::string value = std::string("--verbose=") + token;
    const char* argv[] = {"prog", value.c_str()};
    ASSERT_TRUE(f.parse(2, argv));
    EXPECT_FALSE(f.get_bool("verbose")) << token;
  }
  // A typo used to silently read as false; now it throws.
  for (const char* token : {"ture", "2", "", "TRUE "}) {
    Flags f;
    f.define("verbose", "false", "v");
    const std::string value = std::string("--verbose=") + token;
    const char* argv[] = {"prog", value.c_str()};
    ASSERT_TRUE(f.parse(2, argv));
    EXPECT_THROW(f.get_bool("verbose"), std::invalid_argument) << token;
  }
}

TEST(Flags, DoubleListRejectsBadElements) {
  Flags flags;
  flags.define("sweep", "1,2x,4", "s");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_THROW(flags.get_double_list("sweep"), std::invalid_argument);
}

TEST(TimeSeries, RestorationAucMatchesMeanOfFractions) {
  // Curve restoring 25%, 50%, 100% of 4 units: mean(0.25, 0.5, 1) = 7/12.
  EXPECT_DOUBLE_EQ(restoration_auc({1.0, 2.0, 4.0}, 4.0), 7.0 / 12.0);
  // Instant restoration scores 1; never restoring anything scores 0.
  EXPECT_DOUBLE_EQ(restoration_auc({4.0, 4.0}, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(restoration_auc({0.0, 0.0}, 4.0), 0.0);
}

TEST(TimeSeries, RestorationAucEmptyOrDegenerateScoresZero) {
  // Degenerate input must not read as "fully restored" — an empty series is
  // what a failed solve produces, and scoring it 1.0 would mask the failure
  // in a netrecd service response.
  EXPECT_DOUBLE_EQ(restoration_auc({}, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(restoration_auc({1.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(restoration_auc({1.0}, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(restoration_auc({}, 0.0), 0.0);
}

TEST(TimeSeries, StepsToFractionDegenerateInput) {
  // Empty series: never reached -> size + 1 sentinel (== 1).
  EXPECT_EQ(steps_to_fraction({}, 4.0, 0.5), 1u);
  // Non-positive total: the target is <= 0, so the first entry >= 0
  // trivially reaches it — the sentinel contract still holds.
  EXPECT_EQ(steps_to_fraction({0.0, 1.0}, 0.0, 0.5), 1u);
  EXPECT_EQ(steps_to_fraction({0.0}, -4.0, 0.5), 1u);
  // Zero fraction is reached by any non-negative first measurement.
  EXPECT_EQ(steps_to_fraction({0.0, 1.0}, 4.0, 0.0), 1u);
}

TEST(TimeSeries, StepsToFractionFindsFirstCrossing) {
  const std::vector<double> series{1.0, 2.0, 2.0, 4.0};
  EXPECT_EQ(steps_to_fraction(series, 4.0, 0.25), 1u);
  EXPECT_EQ(steps_to_fraction(series, 4.0, 0.5), 2u);
  EXPECT_EQ(steps_to_fraction(series, 4.0, 1.0), 4u);
  // Never reached: size + 1 sentinel.
  EXPECT_EQ(steps_to_fraction(series, 8.0, 1.0), 5u);
  EXPECT_EQ(steps_to_fraction({}, 4.0, 0.5), 1u);
}

TEST(TimeSeries, StepsToFractionToleratesRoundoff) {
  // A value within 1e-9 of the target counts as reached.
  EXPECT_EQ(steps_to_fraction({2.0 - 5e-10}, 4.0, 0.5), 1u);
}

}  // namespace
}  // namespace netrec::util
