#include "src/util/strings.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/rng.hpp"

namespace sereep {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t x \n"), "x");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Trim, EmptyAndAllSpace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Split, PreservesEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Split, SingleField) {
  const auto fields = split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(SplitWs, DropsEmptyRuns) {
  const auto fields = split_ws("  a \t b\n c ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitWs, EmptyInput) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("NAND", "nand"));
  EXPECT_TRUE(iequals("DfF", "dFf"));
  EXPECT_FALSE(iequals("NAND", "NOR"));
  EXPECT_FALSE(iequals("NAND", "NAN"));
}

TEST(IStartsWith, Basics) {
  EXPECT_TRUE(istarts_with("INPUT(G0)", "input"));
  EXPECT_FALSE(istarts_with("IN", "INPUT"));
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(0.5, 0), "0");  // rounds-to-even allowed either way
  EXPECT_EQ(format_fixed(-1.25, 1), "-1.2");
}

TEST(FormatSi, Magnitudes) {
  EXPECT_EQ(format_si(950.0), "950");
  EXPECT_EQ(format_si(12300.0), "12.3k");
  EXPECT_EQ(format_si(2.5e6), "2.5M");
  EXPECT_EQ(format_si(3.0e9), "3.0G");
}

TEST(ToUpper, Ascii) { EXPECT_EQ(to_upper("nand2_x1"), "NAND2_X1"); }

TEST(ParseLongStrict, AcceptsWholeStringIntegersOnly) {
  EXPECT_EQ(parse_long_strict("0"), 0);
  EXPECT_EQ(parse_long_strict("42"), 42);
  EXPECT_EQ(parse_long_strict("-17"), -17);
  EXPECT_EQ(parse_long_strict("+8"), 8);
  EXPECT_EQ(parse_long_strict("007"), 7);
}

TEST(ParseLongStrict, RejectsTheSilentZeroFamily) {
  // Every one of these was a silent 0 (or a silent truncation) under plain
  // strtol — the CLI bugs this parser exists to close.
  EXPECT_EQ(parse_long_strict("abc"), std::nullopt);
  EXPECT_EQ(parse_long_strict(""), std::nullopt);
  EXPECT_EQ(parse_long_strict("1e4"), std::nullopt);   // parsed as 1
  EXPECT_EQ(parse_long_strict("12x"), std::nullopt);   // parsed as 12
  EXPECT_EQ(parse_long_strict("4.5"), std::nullopt);   // parsed as 4
  EXPECT_EQ(parse_long_strict(" 7"), std::nullopt);    // no implicit trim
  EXPECT_EQ(parse_long_strict("7 "), std::nullopt);
  EXPECT_EQ(parse_long_strict("-"), std::nullopt);
  EXPECT_EQ(parse_long_strict("0x10"), std::nullopt);  // base 10 only
}

TEST(ParseLongStrict, RejectsOutOfRange) {
  EXPECT_EQ(parse_long_strict("99999999999999999999999999"), std::nullopt);
  EXPECT_EQ(parse_long_strict("-99999999999999999999999999"), std::nullopt);
}

TEST(ParseDoubleStrict, AcceptsFiniteNumbers) {
  EXPECT_EQ(parse_double_strict("0.5"), 0.5);
  EXPECT_EQ(parse_double_strict("-1.25"), -1.25);
  EXPECT_EQ(parse_double_strict("1e4"), 1e4);
  EXPECT_EQ(parse_double_strict("3"), 3.0);
}

TEST(ParseDoubleStrict, RejectsGarbageAndNonFinite) {
  EXPECT_EQ(parse_double_strict("abc"), std::nullopt);
  EXPECT_EQ(parse_double_strict(""), std::nullopt);
  EXPECT_EQ(parse_double_strict("0.5x"), std::nullopt);
  EXPECT_EQ(parse_double_strict(" 0.5"), std::nullopt);
  EXPECT_EQ(parse_double_strict("1e999"), std::nullopt);  // overflow
  EXPECT_EQ(parse_double_strict("inf"), std::nullopt);
  EXPECT_EQ(parse_double_strict("nan"), std::nullopt);
}

TEST(FormatRoundTrip, MatchesPrintfG17OnSeededDoubles) {
  // snprintf("%.17g") is the oracle the golden CSVs were written with;
  // to_chars must print the same characters for every double.
  const auto expect_same = [](double v) {
    char want[64];
    std::snprintf(want, sizeof want, "%.17g", v);
    EXPECT_EQ(format_round_trip(v), want) << want;
  };
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, 123456789012345678.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max()}) {
    expect_same(v);
  }
  for (int e = -1074; e <= 1023; ++e) expect_same(std::ldexp(1.0, e));
  Rng rng(0x5eed17);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns (skipping inf/nan, which no table holds), values
    // spread like probabilities, and SER-scale rates.
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) expect_same(bits);
    expect_same(rng.uniform());
    expect_same(rng.uniform() * 1e-12);
    expect_same(static_cast<double>(rng.below(1'000'000)));
  }
}

}  // namespace
}  // namespace sereep
