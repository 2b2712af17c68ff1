// Unit tests for the common substrate: Status/Result, RNG, clock, math,
// strings, CSV.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>

#include "common/csv.h"
#include "common/json_writer.h"
#include "common/math_utils.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/string_utils.h"

namespace fc {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("tile missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "tile missing");
  EXPECT_EQ(s.ToString(), "not found: tile missing");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::IoError("disk gone");
  Status t = s;
  EXPECT_TRUE(t.IsIoError());
  EXPECT_EQ(t.message(), "disk gone");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::Corruption("bad magic").WithContext("decoding tile");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "decoding tile: bad magic");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::OK().WithContext("anything").ok());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  FC_ASSIGN_OR_RETURN(int half, HalveEven(x));
  FC_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = QuarterEven(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Gaussian());
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, UniformUint32Bound) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint32(17), 17u);
  }
}

// ---------------------------------------------------------------------------
// SimClock

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.AdvanceMillis(2.5);
  EXPECT_EQ(clock.NowMicros(), 2500);
  clock.AdvanceMicros(-100);  // negative ignored
  EXPECT_EQ(clock.NowMicros(), 2500);
  clock.Reset();
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(SimClockTest, StopwatchMeasuresVirtualTime) {
  SimClock clock;
  SimStopwatch watch(clock);
  clock.AdvanceMillis(19.5);
  EXPECT_DOUBLE_EQ(watch.ElapsedMillis(), 19.5);
}

// ---------------------------------------------------------------------------
// Math

TEST(MathTest, MeanAndStdDev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(MathTest, PercentileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
}

TEST(MathTest, LinearFitRecoversLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(961.33 - 939.08 * i);
  }
  auto fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.intercept, 961.33, 1e-6);
  EXPECT_NEAR(fit.slope, -939.08, 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(MathTest, LinearFitDegenerate) {
  auto fit = FitLinear({1.0}, {2.0});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.n, 1u);
}

TEST(MathTest, ChiSquaredDistanceBasics) {
  std::vector<double> a = {0.5, 0.5};
  std::vector<double> b = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(ChiSquaredDistance(a, b), 0.0);
  std::vector<double> c = {1.0, 0.0};
  std::vector<double> d = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(ChiSquaredDistance(c, d), 1.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(ChiSquaredDistance(c, d), ChiSquaredDistance(d, c));
}

// The branchy form ChiSquaredDistance had before it took each bin's term
// with a select.
double BranchyChiSquared(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double denom = a[i] + b[i];
    if (denom > 0.0) {
      double d = a[i] - b[i];
      sum += d * d / denom;
    }
  }
  return 0.5 * sum;
}

// Bit for bit equal to the branchy form (any NaN for a NaN: payloads are not
// part of the result) over vectors mixing zero bins, negatives, NaN, +-inf,
// subnormals, signed zeros and ordinary values, at lengths 0 to 40.
TEST(MathTest, ChiSquaredDistanceMatchesBranchyForm) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,
                           -0.0,
                           0.0,
                           1.0,
                           0.25,
                           3.5,
                           -1.0,
                           -0.125,
                           std::numeric_limits<double>::quiet_NaN(),
                           inf,
                           -inf,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           1e-310,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           1e300};
  const auto count = static_cast<std::uint32_t>(std::size(values));
  Rng rng(2025);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = rng.UniformUint32(41);
    std::vector<double> a(n);
    std::vector<double> b(n);
    // Some trials draw only from the first six values: zero bins and
    // ordinary ones, the sparse histograms SB compares.
    const std::uint32_t pool = trial % 3 == 0 ? 6 : count;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.UniformUint32(4) == 0 ? rng.UniformDouble(-2.0, 2.0)
                                       : values[rng.UniformUint32(pool)];
      b[i] = values[rng.UniformUint32(pool)];
    }
    const double got = ChiSquaredDistance(a, b);
    const double want = BranchyChiSquared(a, b);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "trial " << trial;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "trial " << trial << ": " << got << " vs " << want;
    }
  }
}

TEST(MathTest, Norms) {
  std::vector<double> v = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(L2Norm(v), 5.0);
  EXPECT_DOUBLE_EQ(WeightedL2Norm(v, {1.0, 1.0}), 5.0);
  EXPECT_DOUBLE_EQ(L1Distance({1, 2}, {4, 6}), 7.0);
  EXPECT_DOUBLE_EQ(L2Distance({0, 0}, {3, 4}), 5.0);
}

TEST(MathTest, NormalizeToSum1) {
  std::vector<double> v = {1.0, 3.0};
  NormalizeToSum1(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  std::vector<double> zeros = {0.0, 0.0};
  NormalizeToSum1(&zeros);  // no-op, no NaN
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
}

// ---------------------------------------------------------------------------
// Strings

TEST(StringTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x \t"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringTest, ParseInt) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt(" -7 "), -7);
  EXPECT_FALSE(ParseInt("4x").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(StringTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringTest, Affixes) {
  EXPECT_TRUE(StartsWith("forecache", "fore"));
  EXPECT_FALSE(StartsWith("fore", "forecache"));
  EXPECT_TRUE(EndsWith("tile.fctl", ".fctl"));
}

// ---------------------------------------------------------------------------
// CSV

TEST(CsvTest, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, ParseRoundTrip) {
  std::vector<std::string> fields = {"a", "b,with,commas", "c\"quoted\"", ""};
  auto line = CsvRow(fields);
  auto parsed = CsvParseLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, fields);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(CsvParseLine("\"oops").ok());
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/fc_csv_test.csv";
  std::vector<std::vector<std::string>> rows = {{"h1", "h2"}, {"1", "two,three"}};
  ASSERT_TRUE(CsvWriteFile(path, rows).ok());
  auto back = CsvReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rows);
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_TRUE(CsvReadFile("/nonexistent/definitely/missing.csv").status().IsIoError());
}

// ---------------------------------------------------------------------------
// Seed helpers

TEST(SeedTest, HashSeedMixes) {
  EXPECT_NE(HashSeed(1), HashSeed(2));
  EXPECT_EQ(HashSeed(1), HashSeed(1));
}

TEST(SeedTest, CombineOrderSensitive) {
  EXPECT_NE(CombineSeeds(1, 2), CombineSeeds(2, 1));
}


// ---------------------------------------------------------------------------
// JSON writer

TEST(JsonWriterTest, EmitsNestedStructures) {
  auto root = JsonValue::Object();
  root.Set("bench", "demo");
  root.Set("count", std::size_t{3});
  root.Set("rate", 0.25);
  root.Set("ok", true);
  root.Set("missing", JsonValue());
  auto rows = JsonValue::Array();
  rows.Push(JsonValue::Object().Set("k", 1).Set("v", "a"));
  rows.Push(JsonValue::Object().Set("k", 2).Set("v", "b"));
  root.Set("rows", std::move(rows));

  std::string compact = root.Dump(/*indent=*/0);
  EXPECT_EQ(compact,
            "{\"bench\":\"demo\",\"count\":3,\"rate\":0.25,\"ok\":true,"
            "\"missing\":null,\"rows\":[{\"k\":1,\"v\":\"a\"},"
            "{\"k\":2,\"v\":\"b\"}]}");
  // Pretty output keeps the same content plus whitespace.
  EXPECT_NE(root.Dump().find("\"bench\": \"demo\""), std::string::npos);
}

TEST(JsonWriterTest, EscapesStringsAndReplacesNonFinite) {
  auto root = JsonValue::Object();
  root.Set("quote", "a\"b\\c\nd");
  root.Set("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(root.Dump(0), "{\"quote\":\"a\\\"b\\\\c\\nd\",\"inf\":null}");
}

TEST(JsonWriterTest, SetReplacesExistingKeyInPlace) {
  auto root = JsonValue::Object();
  root.Set("a", 1).Set("b", 2).Set("a", 3);
  EXPECT_EQ(root.Dump(0), "{\"a\":3,\"b\":2}");
}

TEST(JsonWriterTest, WriteJsonFileRoundTrips) {
  std::string path = testing::TempDir() + "/fc_json_writer_test.json";
  auto root = JsonValue::Object();
  root.Set("x", 42);
  ASSERT_TRUE(WriteJsonFile(path, root).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\n  \"x\": 42\n}\n");
}

}  // namespace
}  // namespace fc
