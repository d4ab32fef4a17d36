#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/sealed_file.h"
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
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
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

// ---------------------------------------------------------------------------
// SealedFile: the framing checkpoints and session snapshots share, checked
// on images assembled here byte by byte.

constexpr char kTestMagic[8] = {'S', 'E', 'A', 'L', 'T', 'E', 'S', 'T'};

template <typename T>
std::string Bytes(T value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// magic | version u32 | payload | CRC-32 of every byte before it.
std::string HandSealed(uint32_t version, const std::string& payload) {
  std::string image = std::string(kTestMagic, sizeof(kTestMagic)) +
                      Bytes(version) + payload;
  return image + Bytes(Crc32(image.data(), image.size()));
}

Status OpenAsV3(const std::string& image) {
  SealedReader r(image, "test file");
  return r.Open(kTestMagic, 3);
}

TEST(SealedFile, WriterAndReaderRoundTrip) {
  SealedWriter w(kTestMagic, 3);
  w.Write(uint32_t{7});
  w.Write(int64_t{-5});
  w.WriteBytes("abc", 3);
  const std::string image = std::move(w).Seal();
  EXPECT_EQ(image,
            HandSealed(3, Bytes(uint32_t{7}) + Bytes(int64_t{-5}) + "abc"));

  SealedReader r(image, "test file");
  ASSERT_TRUE(r.Open(kTestMagic, 3).ok());
  EXPECT_EQ(r.remaining(), 15u);
  uint32_t a = 0;
  int64_t b = 0;
  std::string c(3, '\0');
  ASSERT_TRUE(r.Read(&a, "a").ok());
  ASSERT_TRUE(r.Read(&b, "b").ok());
  ASSERT_TRUE(r.ReadBytes(c.data(), c.size(), "c").ok());
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, -5);
  EXPECT_EQ(c, "abc");
  EXPECT_TRUE(r.End().ok());
}

TEST(SealedFile, BadMagicIsRejected) {
  std::string image = HandSealed(3, "payload");
  image[0] = 'X';
  for (const std::string& bad : {image, std::string(kTestMagic, 5)}) {
    const Status s = OpenAsV3(bad);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(), "not a test file (bad magic)");
  }
}

// A file of another version may predate the CRC trailer, so the version is
// checked before the CRC and reported even when the CRC is wrong.
TEST(SealedFile, OtherVersionIsReportedBeforeABadCrc) {
  std::string image = HandSealed(1, "payload");
  image.back() = static_cast<char>(image.back() ^ 0x01);
  const Status s = OpenAsV3(image);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "unsupported test file version 1");
}

TEST(SealedFile, BadCrcIsRejected) {
  const std::string good = HandSealed(3, "payload");
  ASSERT_TRUE(OpenAsV3(good).ok());
  for (size_t byte : {size_t{12}, size_t{18}, good.size() - 1}) {
    std::string image = good;
    image[byte] = static_cast<char>(image[byte] ^ 0x04);
    const Status s = OpenAsV3(image);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << byte;
    EXPECT_NE(s.message().find("test file CRC mismatch"), std::string::npos)
        << byte << ": " << s.message();
  }
  // Magic and version, then fewer bytes than a CRC.
  const Status s = OpenAsV3(std::string(kTestMagic, 8) + Bytes(uint32_t{3}) + "ab");
  EXPECT_EQ(s.message(), "test file of 14 bytes is too short for a CRC");
}

TEST(SealedFile, ShortReadNamesKindFieldAndOffset) {
  const std::string image = HandSealed(3, Bytes(uint32_t{9}) + "xy");
  SealedReader r(image, "test file");
  ASSERT_TRUE(r.Open(kTestMagic, 3).ok());
  uint32_t count = 0;
  ASSERT_TRUE(r.Read(&count, "count").ok());
  uint64_t id = 0;
  const Status s = r.Read(&id, "widget id");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The CRC trailer is not payload: two bytes are left, not six.
  EXPECT_EQ(s.message(),
            "truncated test file: need 8 bytes for widget id at offset 16, "
            "have 2");
}

TEST(SealedFile, UnreadPayloadFailsTheEndCheck) {
  const std::string image =
      HandSealed(3, Bytes(uint32_t{9}) + Bytes(uint32_t{10}));
  SealedReader r(image, "test file");
  ASSERT_TRUE(r.Open(kTestMagic, 3).ok());
  uint32_t value = 0;
  ASSERT_TRUE(r.Read(&value, "first").ok());
  const Status s = r.End();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(),
            "corrupt test file: 4 trailing bytes before the CRC at offset 16");
  ASSERT_TRUE(r.Read(&value, "second").ok());
  EXPECT_EQ(value, 10u);
  EXPECT_TRUE(r.End().ok());
}

}  // namespace
}  // namespace embsr
