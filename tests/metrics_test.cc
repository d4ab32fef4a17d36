#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace embsr {
namespace {

TEST(RankOfTargetTest, BestScoreRanksFirst) {
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.2f}, 1), 1);
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.2f}, 2), 2);
  EXPECT_EQ(RankOfTarget({0.1f, 0.9f, 0.2f}, 0), 3);
}

TEST(RankOfTargetTest, TieBreaksByLowerIdFirst) {
  // Items 0 and 2 tie; the target is 2 -> item 0 ranks ahead of it.
  EXPECT_EQ(RankOfTarget({0.5f, 0.1f, 0.5f}, 2), 2);
  // Target 0 with the same tie ranks first.
  EXPECT_EQ(RankOfTarget({0.5f, 0.1f, 0.5f}, 0), 1);
}

TEST(RankAccumulatorTest, HitAndMrr) {
  RankAccumulator acc;
  acc.Add(1);
  acc.Add(3);
  acc.Add(25);
  acc.Add(7);
  EXPECT_EQ(acc.count(), 4);
  // H@5: ranks 1, 3 hit -> 50%.
  EXPECT_DOUBLE_EQ(acc.HitAt(5), 50.0);
  // H@20: ranks 1, 3, 7 -> 75%.
  EXPECT_DOUBLE_EQ(acc.HitAt(20), 75.0);
  // M@5: (1 + 1/3) / 4.
  EXPECT_NEAR(acc.MrrAt(5), 100.0 * (1.0 + 1.0 / 3) / 4, 1e-9);
  // M@20 adds 1/7.
  EXPECT_NEAR(acc.MrrAt(20), 100.0 * (1.0 + 1.0 / 3 + 1.0 / 7) / 4, 1e-9);
}

TEST(RankAccumulatorTest, EmptyIsZero) {
  RankAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.HitAt(5), 0.0);
  EXPECT_DOUBLE_EQ(acc.MrrAt(5), 0.0);
}

TEST(RankAccumulatorTest, MonotoneInK) {
  RankAccumulator acc;
  for (int r : {1, 2, 4, 8, 16, 32}) acc.Add(r);
  EXPECT_LE(acc.HitAt(1), acc.HitAt(5));
  EXPECT_LE(acc.HitAt(5), acc.HitAt(10));
  EXPECT_LE(acc.HitAt(10), acc.HitAt(20));
  EXPECT_LE(acc.MrrAt(1), acc.MrrAt(20));
}

TEST(ReportAtTest, PopulatesAllCutoffs) {
  RankAccumulator acc;
  acc.Add(2);
  MetricReport rep = ReportAt(acc, {1, 5, 10});
  EXPECT_EQ(rep.hit.size(), 3u);
  EXPECT_DOUBLE_EQ(rep.hit.at(1), 0.0);
  EXPECT_DOUBLE_EQ(rep.hit.at(5), 100.0);
  EXPECT_DOUBLE_EQ(rep.mrr.at(5), 50.0);
}

TEST(MetricIdentityTest, HitAt1EqualsMrrAt1) {
  // The paper notes H@1 == M@1; verify on random ranks.
  Rng rng(5);
  RankAccumulator acc;
  for (int i = 0; i < 500; ++i) {
    acc.Add(1 + static_cast<int>(rng.UniformInt(40)));
  }
  EXPECT_DOUBLE_EQ(acc.HitAt(1), acc.MrrAt(1));
}

TEST(WilcoxonTest, IdenticalSamplesNotSignificant) {
  std::vector<double> a = {0.1, 0.5, 0.3, 0.9, 0.2};
  EXPECT_DOUBLE_EQ(WilcoxonSignedRankP(a, a), 1.0);
}

TEST(WilcoxonTest, ClearlyShiftedIsSignificant) {
  Rng rng(7);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    a.push_back(x + 0.5);
    b.push_back(x);
  }
  EXPECT_LT(WilcoxonSignedRankP(a, b), 1e-6);
}

TEST(WilcoxonTest, SymmetricNoiseNotSignificant) {
  Rng rng(9);
  std::vector<double> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(rng.Normal());
    b.push_back(rng.Normal());
  }
  EXPECT_GT(WilcoxonSignedRankP(a, b), 0.01);
}

TEST(WilcoxonTest, TooFewDifferencesReturnsOne) {
  EXPECT_DOUBLE_EQ(WilcoxonSignedRankP({1.0, 2.0}, {1.5, 2.0}), 1.0);
}

TEST(WilcoxonTest, SymmetricInArguments) {
  Rng rng(11);
  std::vector<double> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(rng.Uniform());
    b.push_back(rng.Uniform());
  }
  EXPECT_NEAR(WilcoxonSignedRankP(a, b), WilcoxonSignedRankP(b, a), 1e-12);
}

TEST(TopKIndicesTest, ReturnsTopScoresInDescendingOrder) {
  const std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f, 0.3f};
  EXPECT_EQ(TopKIndices(scores, 3), (std::vector<int64_t>{1, 3, 2}));
}

TEST(TopKIndicesTest, TiesBreakTowardLowerIndex) {
  const std::vector<float> scores = {0.5f, 0.9f, 0.5f, 0.9f, 0.5f};
  EXPECT_EQ(TopKIndices(scores, 4), (std::vector<int64_t>{1, 3, 0, 2}));
}

TEST(TopKIndicesTest, KLargerThanNClampsToFullRanking) {
  const std::vector<float> scores = {0.2f, 0.8f, 0.4f};
  EXPECT_EQ(TopKIndices(scores, 10), (std::vector<int64_t>{1, 2, 0}));
}

TEST(TopKIndicesTest, KZeroAndEmptyInput) {
  EXPECT_TRUE(TopKIndices({0.1f, 0.2f}, 0).empty());
  EXPECT_TRUE(TopKIndices({}, 5).empty());
}

TEST(TopKIndicesTest, AgreesWithRankOfTarget) {
  // The partial top-k and the full ranking share one ordering: an item is in
  // the top k exactly when RankOfTarget gives it rank <= k, and its position
  // in the returned list is its rank - 1.
  Rng rng(42);
  std::vector<float> scores(101);
  for (auto& s : scores) s = static_cast<float>(rng.Uniform(-1.0, 1.0));
  scores[17] = scores[63];  // force a tie
  const size_t k = 10;
  const std::vector<int64_t> top = TopKIndices(scores, k);
  ASSERT_EQ(top.size(), k);
  for (size_t pos = 0; pos < top.size(); ++pos) {
    EXPECT_EQ(RankOfTarget(scores, top[pos]), static_cast<int>(pos) + 1);
  }
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    const bool in_top = std::find(top.begin(), top.end(), i) != top.end();
    EXPECT_EQ(in_top, RankOfTarget(scores, i) <= static_cast<int>(k)) << i;
  }
}

}  // namespace
}  // namespace embsr
