#include "data/preprocess.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

namespace embsr {
namespace {

Session MakeSession(std::initializer_list<std::pair<int64_t, int64_t>> evs) {
  Session s;
  for (auto [item, op] : evs) s.events.push_back({item, op});
  return s;
}

TEST(MergeSuccessiveTest, PaperFigure3Example) {
  // The session of Fig. 3: items v1 v2 v3 v2 v2 v2 v3 v3 v3 v4 with ops
  // merging to S^v = {v1, v2, v3, v2, v3, v4} and
  // S^o = {(o1), (o1), (o1), (o1,o2), (o1,o2,o3), (o1)}.
  std::vector<MicroBehavior> events = {
      {1, 1}, {2, 1}, {3, 1}, {2, 1}, {2, 2},
      {3, 1}, {3, 2}, {3, 3}, {4, 1}};
  std::vector<int64_t> items;
  std::vector<std::vector<int64_t>> ops;
  MergeSuccessive(events, &items, &ops);
  EXPECT_EQ(items, (std::vector<int64_t>{1, 2, 3, 2, 3, 4}));
  ASSERT_EQ(ops.size(), 6u);
  EXPECT_EQ(ops[0], (std::vector<int64_t>{1}));
  EXPECT_EQ(ops[3], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(ops[4], (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(ops[5], (std::vector<int64_t>{1}));
}

TEST(MergeSuccessiveTest, EmptyInput) {
  std::vector<int64_t> items;
  std::vector<std::vector<int64_t>> ops;
  MergeSuccessive({}, &items, &ops);
  EXPECT_TRUE(items.empty());
  EXPECT_TRUE(ops.empty());
}

TEST(MergeSuccessiveTest, SingleRun) {
  std::vector<int64_t> items;
  std::vector<std::vector<int64_t>> ops;
  MergeSuccessive({{5, 0}, {5, 1}, {5, 2}}, &items, &ops);
  EXPECT_EQ(items, (std::vector<int64_t>{5}));
  EXPECT_EQ(ops[0], (std::vector<int64_t>{0, 1, 2}));
}

PreprocessConfig LooseConfig() {
  PreprocessConfig c;
  c.min_item_support = 1;
  c.shuffle = false;
  c.train_fraction = 0.7;
  c.valid_fraction = 0.1;
  return c;
}

std::vector<Session> ManySessions(int n) {
  std::vector<Session> sessions;
  for (int i = 0; i < n; ++i) {
    // Rotate over a small item alphabet so every item is well supported.
    const int64_t a = i % 5, b = (i + 1) % 5, c = (i + 2) % 5;
    sessions.push_back(MakeSession({{a, 0}, {a, 1}, {b, 0}, {c, 0}}));
  }
  return sessions;
}

TEST(PreprocessTest, SplitSizesFollowFractions) {
  auto result = Preprocess(ManySessions(100), 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  const auto& d = result.value();
  EXPECT_EQ(d.train.size(), 70u);
  EXPECT_EQ(d.valid.size(), 10u);
  EXPECT_EQ(d.test.size(), 20u);
  EXPECT_EQ(d.num_operations, 3);
  EXPECT_EQ(d.name, "t");
}

TEST(PreprocessTest, TargetIsLastMacroItemAndExcludedFromInput) {
  auto result = Preprocess(ManySessions(100), 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  for (const auto& ex : result.value().train) {
    // Input macro sequence must not end with the target (no leakage).
    ASSERT_FALSE(ex.macro_items.empty());
    EXPECT_NE(ex.macro_items.back(), ex.target);
    // Flat stream must not include the target's trailing run.
    EXPECT_NE(ex.flat_items.back(), ex.target);
    // Parallel arrays.
    EXPECT_EQ(ex.flat_items.size(), ex.flat_ops.size());
    EXPECT_EQ(ex.macro_items.size(), ex.macro_ops.size());
  }
}

TEST(PreprocessTest, FlatAndMacroAreConsistent) {
  auto result = Preprocess(ManySessions(60), 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  for (const auto& ex : result.value().train) {
    size_t total_ops = 0;
    for (const auto& ops : ex.macro_ops) {
      ASSERT_FALSE(ops.empty());
      total_ops += ops.size();
    }
    EXPECT_EQ(total_ops, ex.flat_items.size());
    // Re-merging the flat stream must reproduce the macro sequence.
    std::vector<MicroBehavior> events;
    for (size_t i = 0; i < ex.flat_items.size(); ++i) {
      events.push_back({ex.flat_items[i], ex.flat_ops[i]});
    }
    std::vector<int64_t> items;
    std::vector<std::vector<int64_t>> ops;
    MergeSuccessive(events, &items, &ops);
    EXPECT_EQ(items, ex.macro_items);
    EXPECT_EQ(ops, ex.macro_ops);
  }
}

TEST(PreprocessTest, MinSupportDropsRareItems) {
  std::vector<Session> sessions = ManySessions(50);
  // One session with a unique rare item 99.
  sessions.push_back(MakeSession({{0, 0}, {99, 0}, {1, 0}, {2, 0}}));
  PreprocessConfig cfg = LooseConfig();
  cfg.min_item_support = 2;
  auto result = Preprocess(sessions, 3, cfg, "t");
  ASSERT_TRUE(result.ok());
  for (const auto* split :
       {&result.value().train, &result.value().valid, &result.value().test}) {
    for (const auto& ex : *split) {
      for (int64_t item : ex.flat_items) EXPECT_LT(item, 5);
      EXPECT_LT(ex.target, 5);
    }
  }
}

TEST(PreprocessTest, ItemsAreDenselyRemapped) {
  auto result = Preprocess(ManySessions(80), 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  const auto& d = result.value();
  std::set<int64_t> seen;
  for (const auto& ex : d.train) {
    for (int64_t item : ex.flat_items) seen.insert(item);
    seen.insert(ex.target);
  }
  for (int64_t item : seen) {
    EXPECT_GE(item, 0);
    EXPECT_LT(item, d.num_items);
  }
}

TEST(PreprocessTest, TestItemsAllSeenInTraining) {
  // Sessions whose late portion uses items absent from early sessions.
  std::vector<Session> sessions = ManySessions(70);
  for (int i = 0; i < 30; ++i) {
    // Unseen items 100/101 mixed into otherwise-usable sessions; the
    // preprocessing must drop the unseen events but keep the session.
    const int64_t a = i % 5, b = (i + 1) % 5;
    sessions.push_back(
        MakeSession({{a, 0}, {100, 1}, {b, 0}, {101, 0}, {a, 1}}));
  }
  PreprocessConfig cfg = LooseConfig();
  auto result = Preprocess(sessions, 3, cfg, "t");
  ASSERT_TRUE(result.ok());
  const auto& d = result.value();
  for (const auto& ex : d.test) {
    for (int64_t item : ex.flat_items) EXPECT_LT(item, d.num_items);
    EXPECT_LT(ex.target, d.num_items);
  }
}

TEST(PreprocessTest, SingleMacroItemSessionsExcluded) {
  std::vector<Session> sessions = ManySessions(40);
  for (int i = 0; i < 10; ++i) {
    sessions.push_back(MakeSession({{0, 0}, {0, 1}, {0, 2}}));  // one item
  }
  auto result = Preprocess(sessions, 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().train.size() + result.value().valid.size() +
                result.value().test.size(),
            40u);
}

TEST(PreprocessTest, TruncationKeepsMostRecentEvents) {
  std::vector<Session> sessions = ManySessions(40);
  Session longs;
  for (int i = 0; i < 30; ++i) {
    longs.events.push_back({static_cast<int64_t>(i % 5), 0});
  }
  sessions.push_back(longs);
  PreprocessConfig cfg = LooseConfig();
  cfg.max_session_events = 8;
  auto result = Preprocess(sessions, 3, cfg, "t");
  ASSERT_TRUE(result.ok());
  for (const auto& ex : result.value().train) {
    EXPECT_LE(ex.flat_items.size(), 8u);
  }
}

TEST(PreprocessTest, SingleOperationRestrictionKeepsTarget) {
  std::vector<Session> with_ops;
  for (int i = 0; i < 50; ++i) {
    const int64_t a = i % 5, b = (i + 1) % 5, c = (i + 2) % 5;
    with_ops.push_back(MakeSession(
        {{a, 0}, {a, 1}, {b, 1}, {b, 0}, {c, 0}}));
  }
  PreprocessConfig cfg = LooseConfig();
  auto full = Preprocess(with_ops, 2, cfg, "full");
  cfg.restrict_macro_to_operation = 0;
  auto restricted = Preprocess(with_ops, 2, cfg, "click-only");
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(restricted.ok());
  ASSERT_EQ(full.value().train.size(), restricted.value().train.size());
  for (size_t i = 0; i < full.value().train.size(); ++i) {
    // Ground truth must be identical under the restriction (supplement).
    EXPECT_EQ(full.value().train[i].target,
              restricted.value().train[i].target);
    // All remaining operations are the restricted one.
    for (int64_t op : restricted.value().train[i].flat_ops) {
      EXPECT_EQ(op, 0);
    }
  }
}

TEST(PreprocessTest, RejectsEmptyAndBadConfig) {
  EXPECT_FALSE(Preprocess({}, 2, LooseConfig(), "x").ok());
  PreprocessConfig bad = LooseConfig();
  bad.train_fraction = 0.95;
  bad.valid_fraction = 0.1;
  EXPECT_FALSE(Preprocess(ManySessions(20), 2, bad, "x").ok());
}

TEST(PreprocessTest, TotalMicroBehaviorsCountsTargets) {
  auto result = Preprocess(ManySessions(30), 3, LooseConfig(), "t");
  ASSERT_TRUE(result.ok());
  const auto& d = result.value();
  int64_t expected = 0;
  for (const auto* split : {&d.train, &d.valid, &d.test}) {
    for (const auto& ex : *split) {
      expected += static_cast<int64_t>(ex.flat_items.size()) + 1;
    }
  }
  EXPECT_EQ(d.TotalMicroBehaviors(), expected);
}

}  // namespace
}  // namespace embsr
