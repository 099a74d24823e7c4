#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace shadoop {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, CopyAndMoveSemantics) {
  Status s = Status::IoError("disk");
  Status copy = s;
  EXPECT_TRUE(copy.IsIoError());
  EXPECT_TRUE(s.IsIoError());
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIoError());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SHADOOP_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsInternal());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result = 42;
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);

  Result<int> err_result = Status::ParseError("nope");
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsParseError());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto parse = [](bool good) -> Result<int> {
    if (!good) return Status::ParseError("bad");
    return 7;
  };
  auto wrapper = [&](bool good) -> Result<int> {
    SHADOOP_ASSIGN_OR_RETURN(int v, parse(good));
    return v * 2;
  };
  EXPECT_EQ(wrapper(true).value(), 14);
  EXPECT_TRUE(wrapper(false).status().IsParseError());
}

TEST(StringUtilTest, SplitStringKeepsEmptyFields) {
  auto fields = SplitString("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto fields = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x  "), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t\n "), "");
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").ValueOrDie(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12x").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("123").ValueOrDie(), 123);
  EXPECT_EQ(ParseInt64("-5").ValueOrDie(), -5);
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0 / 3.0, -123456.789012345, 1e-300, 3.14159265358979,
                   1e6, 0.1}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v)).ValueOrDie(), v);
  }
}

/// The three-pass FormatDouble: "%.Pg" for the first P in 15..17 that
/// parses back exactly. Kept as the byte-level reference for the
/// single-pass implementation.
std::string ThreePassFormatDouble(double value) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::from_chars(buf, buf + std::strlen(buf), parsed);
    if (parsed == value) break;
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// One seeded double from the class `kind` selects: raw bit patterns,
/// integers, powers of two, the neighbourhoods of the %g exponent switch
/// (1e-4) and of 1e15..1e17 (where 15, 16 and 17 digits part ways),
/// subnormals, coordinate-like values, short decimals and specials.
double ParityValue(Random& rng, int kind) {
  const double sign = rng.NextBool() ? -1.0 : 1.0;
  switch (kind) {
    case 0:
      return FromBits(rng.NextUint64());
    case 1:
      return sign * static_cast<double>(rng.NextUint64() >>
                                        (11 + rng.NextUint32(53)));
    case 2:
      return sign * std::ldexp(1.0 + rng.NextUint32(8),
                               static_cast<int>(rng.NextUint32(2098)) - 1077);
    case 3: {
      static constexpr double kEdges[] = {1e-5, 1e-4, 1e-3, 1e14,
                                          1e15, 1e16, 1e17, 1e18};
      double v = kEdges[rng.NextUint32(8)] * (1.0 + rng.NextDouble(-1, 1) *
                                                        (rng.NextBool() ? 1e-3
                                                                        : 0.0));
      for (uint32_t steps = rng.NextUint32(6); steps > 0; --steps) {
        v = std::nextafter(v, rng.NextBool() ? 0.0 : 1e300);
      }
      return sign * v;
    }
    case 4:
      return FromBits(rng.NextUint64() & 0x800fffffffffffffULL);
    case 5:
      return rng.NextDouble(0, 1e6);
    case 6:
      return sign * static_cast<double>(rng.NextUint64(100000000)) /
             std::pow(10.0, static_cast<double>(rng.NextUint32(9)));
    default: {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      static constexpr double kSpecials[] = {
          0.0, kInf, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(), 1.0, 0.1};
      const double v = kSpecials[rng.NextUint32(8)];
      return rng.NextBool() ? sign * v : std::nextafter(sign * v, 0.0);
    }
  }
}

TEST(StringUtilTest, FormatDoubleMatchesThreePassReferenceBytes) {
  // 4 seeded streams of 2.5M values each, one per thread.
  constexpr int kStreams = 4;
  constexpr size_t kValuesPerStream = 2'500'000;
  std::vector<size_t> mismatches(kStreams, 0);
  std::vector<std::string> first_mismatch(kStreams);
  std::vector<std::thread> threads;
  for (int t = 0; t < kStreams; ++t) {
    threads.emplace_back([t, &mismatches, &first_mismatch] {
      Random rng(20261020 + t);
      for (size_t i = 0; i < kValuesPerStream; ++i) {
        const double v = ParityValue(rng, static_cast<int>(i % 8));
        const std::string got = FormatDouble(v);
        const std::string want = ThreePassFormatDouble(v);
        if (got == want) continue;
        if (mismatches[t]++ == 0) {
          char hex[40];
          std::snprintf(hex, sizeof(hex), "%a", v);
          first_mismatch[t] = std::string(hex) + ": " + got + " vs " + want;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kStreams; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "first: " << first_mismatch[t];
  }
  for (double v : {0.0, -0.0, 1e300 * 1e300, -1e300 * 1e300}) {
    EXPECT_EQ(FormatDouble(v), ThreePassFormatDouble(v));
  }
  EXPECT_EQ(FormatDouble(-0.0), "-0");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(1e-4), "0.0001");
  EXPECT_EQ(FormatDouble(1e-5), "1e-05");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_TRUE(StartsWithIgnoreCase("Polygon ((", "POLYGON"));
  EXPECT_FALSE(StartsWithIgnoreCase("POLY", "POLYGON"));
  EXPECT_EQ(AsciiToUpper("MixedCase_9"), "MIXEDCASE_9");
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, BoundedValuesInRange) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double r = rng.NextDouble(-2, 5);
    EXPECT_GE(r, -2.0);
    EXPECT_LT(r, 5.0);
  }
}

TEST(RandomTest, GaussianHasRoughlyUnitVariance) {
  Random rng(4);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(variance, 1.0, 0.1);
}

TEST(RandomTest, ForkedStreamsAreIndependent) {
  Random parent(5);
  Random child1 = parent.Fork();
  Random child2 = parent.Fork();
  std::set<uint64_t> values;
  for (int i = 0; i < 50; ++i) {
    values.insert(child1.NextUint64());
    values.insert(child2.NextUint64());
  }
  EXPECT_EQ(values.size(), 100u);
}

}  // namespace
}  // namespace shadoop
