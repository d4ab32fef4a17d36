#include <gtest/gtest.h>

#include <climits>
#include <set>

#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace embsr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad batch size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad batch size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad batch size");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::FailedPrecondition("").code(),
      Status::Internal("").code(),        Status::Unimplemented("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, NormalHasApproxUnitMoments) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(9);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(77);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, GeometricCappedRespectsCap) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(rng.GeometricCapped(0.99, 4), 4);
    EXPECT_EQ(rng.GeometricCapped(0.0, 10), 0);
  }
}

TEST(ZipfWeightsTest, DecreasingAndPositive) {
  auto w = ZipfWeights(10, 1.2);
  ASSERT_EQ(w.size(), 10u);
  for (size_t i = 1; i < w.size(); ++i) {
    EXPECT_GT(w[i], 0.0);
    EXPECT_LT(w[i], w[i - 1]);
  }
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "bb", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,bb,,c");
  EXPECT_EQ(Split("a,bb,,c", ','), parts);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(12.3456, 2), "12.35");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abc");
}

TEST(StringUtilTest, RenderTableAligns) {
  std::string t = RenderTable({"m", "value"}, {{"H@5", "12.34"}});
  EXPECT_NE(t.find("| m   | value |"), std::string::npos);
  EXPECT_NE(t.find("H@5"), std::string::npos);
}

TEST(EnvTest, FallbacksWhenUnset) {
  unsetenv("EMBSR_TEST_ENV_X");
  EXPECT_DOUBLE_EQ(GetEnvDouble("EMBSR_TEST_ENV_X", 2.5), 2.5);
  EXPECT_EQ(GetEnvInt("EMBSR_TEST_ENV_X", 7), 7);
  EXPECT_EQ(GetEnvString("EMBSR_TEST_ENV_X", "d"), "d");
}

TEST(EnvTest, ParsesSetValues) {
  setenv("EMBSR_TEST_ENV_X", "3.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("EMBSR_TEST_ENV_X", 1.0), 3.5);
  setenv("EMBSR_TEST_ENV_X", "42", 1);
  EXPECT_EQ(GetEnvInt("EMBSR_TEST_ENV_X", 0), 42);
  unsetenv("EMBSR_TEST_ENV_X");
}

TEST(EnvTest, FallsBackOnTrailingCharacters) {
  for (const char* raw : {"4x", "1e3", "4 "}) {
    setenv("EMBSR_TEST_ENV_X", raw, 1);
    EXPECT_EQ(GetEnvInt("EMBSR_TEST_ENV_X", 7), 7) << raw;
  }
  setenv("EMBSR_TEST_ENV_X", "0.5x", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("EMBSR_TEST_ENV_X", 2.5), 2.5);
  unsetenv("EMBSR_TEST_ENV_X");
}

TEST(EnvTest, FallsBackOnIntOutOfRange) {
  for (const char* raw :
       {"3000000000", "-3000000000", "99999999999999999999"}) {
    setenv("EMBSR_TEST_ENV_X", raw, 1);
    EXPECT_EQ(GetEnvInt("EMBSR_TEST_ENV_X", 7), 7) << raw;
  }
  setenv("EMBSR_TEST_ENV_X", "-2147483648", 1);
  EXPECT_EQ(GetEnvInt("EMBSR_TEST_ENV_X", 7), INT_MIN);
  unsetenv("EMBSR_TEST_ENV_X");
}

TEST(EnvTest, FallsBackOnNonFiniteDouble) {
  for (const char* raw : {"nan", "inf", "-inf", "1e999"}) {
    setenv("EMBSR_TEST_ENV_X", raw, 1);
    EXPECT_DOUBLE_EQ(GetEnvDouble("EMBSR_TEST_ENV_X", 2.5), 2.5) << raw;
  }
  setenv("EMBSR_TEST_ENV_X", "1e3", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("EMBSR_TEST_ENV_X", 2.5), 1000.0);
  unsetenv("EMBSR_TEST_ENV_X");
}

}  // namespace
}  // namespace embsr
