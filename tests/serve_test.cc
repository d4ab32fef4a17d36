// Acceptance tests for the fault-tolerant serving core (src/serve): the
// deadline contract, admission control, circuit breaking, degraded-mode
// labeling, session snapshot round-trips and corruption, and train/serve
// parity — all on a manual clock, so "the scorer took 80 ms" is a scripted
// fact, not a race.

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/preprocess.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "robust/failpoint.h"
#include "serve/clock.h"
#include "serve/frontend.h"
#include "serve/scorer.h"
#include "serve/session_store.h"
#include "train/model_zoo.h"
#include "util/crc32.h"
#include "util/fs_util.h"

namespace embsr {
namespace {

constexpr int64_t kMs = 1000000;  // ns per ms

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

bool SameExample(const Example& a, const Example& b) {
  return a.macro_items == b.macro_items && a.macro_ops == b.macro_ops &&
         a.flat_items == b.flat_items && a.flat_ops == b.flat_ops &&
         a.target == b.target;
}

class FailpointEnvGuard {
 public:
  FailpointEnvGuard() { robust::Failpoints::Global().ClearAll(); }
  ~FailpointEnvGuard() { robust::Failpoints::Global().ClearAll(); }
};

/// Ten items, four operations, item popularity rising with the id (item 9
/// most popular) so fallback rankings are predictable.
ProcessedDataset TinyData() {
  ProcessedDataset data;
  data.name = "tiny";
  data.num_items = 10;
  data.num_operations = 4;
  for (int64_t item = 0; item < 10; ++item) {
    for (int64_t copies = 0; copies <= item; ++copies) {
      Example ex;
      ex.macro_items = {item};
      ex.macro_ops = {{0}};
      ex.flat_items = {item};
      ex.flat_ops = {0};
      ex.target = item;
      data.train.push_back(ex);
    }
  }
  return data;
}

/// Deterministic primary: scores every item by id (top item = highest id,
/// identical to the fallback-with-no-session ordering's *reverse* — see
/// ReversedScorer below for a distinguishable variant) and advances a
/// manual clock by a scripted per-call cost.
class StubScorer : public Recommender {
 public:
  StubScorer(int64_t num_items, serve::ManualClock* clock = nullptr,
             int64_t cost_ns = 0)
      : num_items_(num_items), clock_(clock), cost_ns_(cost_ns) {}

  std::string name() const override { return "stub"; }
  Status Fit(const ProcessedDataset&) override { return Status::OK(); }

  std::vector<float> ScoreAll(const Example&) override {
    ++calls_;
    if (clock_ != nullptr) clock_->Advance(cost_ns_);
    std::vector<float> s(static_cast<size_t>(num_items_));
    for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i);
    return s;
  }

  int calls() const { return calls_; }
  void set_cost_ns(int64_t ns) { cost_ns_ = ns; }

 private:
  int64_t num_items_;
  serve::ManualClock* clock_;
  int64_t cost_ns_;
  int calls_ = 0;
};

serve::ServeConfig TestConfig() {
  serve::ServeConfig cfg;
  cfg.deadline_ms = 50;
  cfg.queue_capacity = 4;
  cfg.max_retries = 3;
  cfg.backoff_base_ms = 2;
  cfg.breaker_strikes = 3;
  cfg.breaker_cooldown_ms = 250;
  cfg.top_k = 5;
  cfg.seed = 7;
  return cfg;
}

serve::Request Req(uint64_t id, uint64_t session = 1, int64_t item = 2,
                   int64_t op = 0) {
  serve::Request r;
  r.request_id = id;
  r.session_id = session;
  r.event = MicroBehavior{item, op};
  return r;
}

// ---------------------------------------------------------------------------
// (a) Deadline propagation: an expired budget never yields a full-price
// scoring result.

TEST(ServeTest, QueueWaitPastDeadlineAbandonsWithoutScoring) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeFrontend fe(TestConfig(), &primary, &fallback, mc.clock());

  ASSERT_TRUE(fe.Submit(Req(1)).ok());
  mc.Advance(60 * kMs);  // budget is 50 ms; it expired while queued
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  const serve::ServeResponse& resp = r.value();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.top_items.empty());
  EXPECT_EQ(primary.calls(), 0);  // the work was abandoned, never priced
  EXPECT_GE(resp.queue_ms, 60.0);
}

TEST(ServeTest, SlowScorerPastDeadlineIsDiscardedForFallback) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  // The primary takes 80 ms against a 50 ms budget: its answer arrives,
  // but too late to be the response.
  StubScorer primary(data.num_items, &mc, 80 * kMs);
  serve::ServeFrontend fe(TestConfig(), &primary, &fallback, mc.clock());

  ASSERT_TRUE(fe.Submit(Req(1, /*session=*/1, /*item=*/2)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  const serve::ServeResponse& resp = r.value();
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(primary.calls(), 1);
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.degraded_reason, "score_deadline");
  // The response is the fallback's ranking, not the stub's id-descending
  // one: the session's own item (2, recency-boosted) must outrank the
  // stub's favourite (9).
  ASSERT_FALSE(resp.top_items.empty());
  EXPECT_EQ(resp.top_items[0], 2);
}

// ---------------------------------------------------------------------------
// (b) Admission control: overflow sheds with a typed reject.

TEST(ServeTest, QueueOverflowShedsWithTypedReject) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeConfig cfg = TestConfig();
  cfg.queue_capacity = 2;
  serve::ServeFrontend fe(cfg, &primary, &fallback, mc.clock());

  EXPECT_TRUE(fe.Submit(Req(1)).ok());
  EXPECT_TRUE(fe.Submit(Req(2)).ok());
  const Status shed = fe.Submit(Req(3));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("shed"), std::string::npos);
  EXPECT_EQ(fe.queue_depth(), 2u);

  // The "serve.queue_full" failpoint forces a shed even with room.
  fe.ProcessAll();
  robust::Failpoints::Global().Set("serve.queue_full", 1.0, /*limit=*/1);
  EXPECT_EQ(fe.Submit(Req(4)).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fe.Submit(Req(5)).ok());
}

TEST(ServeTest, OutOfVocabularyEventIsRejectedAtSubmit) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  obs::Counter* rejected =
      obs::Registry::Global().GetCounter("serve/rejected_invalid");
  TrainConfig tc;
  tc.embedding_dim = 8;
  // Both models index their embedding tables with the event's ids.
  for (const char* name : {"EMBSR", "STAMP"}) {
    SCOPED_TRACE(name);
    auto primary =
        CreateModel(name, data.num_items, data.num_operations, tc);
    ASSERT_NE(primary, nullptr);
    primary->EnsureEvalMode();
    serve::ManualClock mc;
    serve::ServeFrontend fe(TestConfig(), primary.get(), &fallback,
                            mc.clock());
    const int64_t rejected_before = rejected->value();
    // Item num_items, item -1, and operation num_operations (EMBSR's
    // virtual operation id), all on session 5.
    for (const serve::Request& bad :
         {Req(1, 5, data.num_items, 0), Req(2, 5, -1, 0),
          Req(3, 5, 2, data.num_operations)}) {
      EXPECT_EQ(fe.Submit(bad).code(), StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(rejected->value() - rejected_before, 3);
    EXPECT_EQ(fe.queue_depth(), 0u);
    EXPECT_EQ(fe.store().size(), 0u);

    ASSERT_TRUE(fe.Submit(Req(4, 5, 2, 1)).ok());
    auto r = fe.ProcessNext();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().status.ok());
    EXPECT_FALSE(r.value().degraded);
    EXPECT_EQ(r.value().top_items.size(), TestConfig().top_k);
    auto state = fe.store().Get(5);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state.value()->flat_items, (std::vector<int64_t>{2}));
  }
}

// ---------------------------------------------------------------------------
// (c) Circuit breaker: opens after K consecutive injected failures,
// recovers through a half-open probe.

TEST(ServeTest, BreakerOpensAfterStrikesAndRecoversViaProbe) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeConfig cfg = TestConfig();
  cfg.max_retries = 0;  // one scorer attempt per request
  cfg.breaker_strikes = 3;
  cfg.breaker_cooldown_ms = 250;
  serve::ServeFrontend fe(cfg, &primary, &fallback, mc.clock());
  auto& fp = robust::Failpoints::Global();

  // Three injected scorer failures in a row: every response is degraded
  // and the third strike opens the breaker.
  fp.Set("serve.score", 1.0, /*limit=*/3);
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(fe.Submit(Req(id)).ok());
    auto r = fe.ProcessNext();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().degraded);
    EXPECT_EQ(r.value().degraded_reason, "score_failed");
  }
  EXPECT_EQ(fe.breaker().state(), serve::BreakerState::kOpen);

  // While open, the primary is not even consulted (the failpoint is spent,
  // so a call *would* succeed — the breaker must prevent it).
  const int calls_when_opened = primary.calls();
  ASSERT_TRUE(fe.Submit(Req(4)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().degraded_reason, "breaker_open");
  EXPECT_EQ(primary.calls(), calls_when_opened);

  // After the cooldown the next request is the half-open probe; it
  // succeeds and closes the breaker — full-price service resumes.
  mc.Advance(251 * kMs);
  ASSERT_TRUE(fe.Submit(Req(5)).ok());
  r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(primary.calls(), calls_when_opened + 1);
  EXPECT_EQ(fe.breaker().state(), serve::BreakerState::kClosed);
}

TEST(ServeTest, FailedProbeReopensBreaker) {
  FailpointEnvGuard guard;
  serve::ManualClock mc;
  serve::CircuitBreaker breaker(/*strike_threshold=*/2,
                                /*cooldown_ns=*/100 * kMs);
  EXPECT_TRUE(breaker.AllowRequest(mc.now_ns()));
  breaker.RecordFailure(mc.now_ns());
  EXPECT_TRUE(breaker.AllowRequest(mc.now_ns()));
  breaker.RecordFailure(mc.now_ns());
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(mc.now_ns()));

  mc.Advance(101 * kMs);
  EXPECT_TRUE(breaker.AllowRequest(mc.now_ns()));  // the half-open probe
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  // Only one probe may be in flight.
  EXPECT_FALSE(breaker.AllowRequest(mc.now_ns()));
  breaker.RecordFailure(mc.now_ns());
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(mc.now_ns()));
  mc.Advance(101 * kMs);
  EXPECT_TRUE(breaker.AllowRequest(mc.now_ns()));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// (d) Degraded responses are labeled and answered by the popularity
// fallback.

TEST(ServeTest, DegradedResponseMatchesFallbackRanking) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeConfig cfg = TestConfig();
  cfg.max_retries = 0;
  serve::ServeFrontend fe(cfg, &primary, &fallback, mc.clock());

  // Exhaust the scorer (retries disabled) on a session holding item 4.
  robust::Failpoints::Global().Set("serve.score", 1.0, /*limit=*/1);
  ASSERT_TRUE(fe.Submit(Req(1, /*session=*/9, /*item=*/4)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  const serve::ServeResponse& resp = r.value();
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.degraded_reason, "score_failed");

  // Expected ranking: the fallback scored on exactly this session state.
  auto state = fe.store().Get(9);
  ASSERT_TRUE(state.ok());
  const std::vector<float> expect_scores =
      fallback.ScoreAll(state.value()->ToExample());
  EXPECT_EQ(resp.top_items, TopKIndices(expect_scores, cfg.top_k));
  EXPECT_EQ(resp.top_items[0], 4);  // recency-boosted session item first
}

TEST(ServeTest, StoreFailurePastRetriesFallsBackToPurePopularity) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeConfig cfg = TestConfig();
  cfg.max_retries = 1;
  serve::ServeFrontend fe(cfg, &primary, &fallback, mc.clock());

  // Store down harder than the retry budget: 1 try + 1 retry, both fail.
  robust::Failpoints::Global().Set("serve.store_read", 1.0, /*limit=*/2);
  ASSERT_TRUE(fe.Submit(Req(1)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  const serve::ServeResponse& resp = r.value();
  EXPECT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.degraded_reason, "store_unavailable");
  EXPECT_EQ(resp.retries, 1);
  EXPECT_GT(resp.backoff_ns, 0);
  EXPECT_EQ(primary.calls(), 0);
  // Pure popularity (no session state): item 9 is the most popular.
  ASSERT_FALSE(resp.top_items.empty());
  EXPECT_EQ(resp.top_items[0], 9);
}

TEST(ServeTest, TransientStoreFailureIsRetriedToFullPrice) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);
  serve::ServeFrontend fe(TestConfig(), &primary, &fallback, mc.clock());

  // Two transient failures, then the store recovers: full-price response
  // with the retry/backoff accounting on the response.
  robust::Failpoints::Global().Set("serve.store_read", 1.0, /*limit=*/2);
  ASSERT_TRUE(fe.Submit(Req(1)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  const serve::ServeResponse& resp = r.value();
  EXPECT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(resp.retries, 2);
  EXPECT_GT(resp.backoff_ns, 0);
  EXPECT_EQ(primary.calls(), 1);
  EXPECT_EQ(fe.store().size(), 1u);
}

// ---------------------------------------------------------------------------
// (e) Session store: incremental state and bit-for-bit snapshot/restore.

TEST(ServeTest, SessionStateMergesMicroBehaviors) {
  serve::SessionStore store;
  // Same item twice = one macro item with two ops (the preprocess merge).
  ASSERT_TRUE(store.ApplyEvent(1, {5, 0}).ok());
  ASSERT_TRUE(store.ApplyEvent(1, {5, 2}).ok());
  auto r = store.ApplyEvent(1, {7, 1});
  ASSERT_TRUE(r.ok());
  const Example ex = r.value()->ToExample();
  EXPECT_EQ(ex.macro_items, (std::vector<int64_t>{5, 7}));
  ASSERT_EQ(ex.macro_ops.size(), 2u);
  EXPECT_EQ(ex.macro_ops[0], (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(ex.macro_ops[1], (std::vector<int64_t>{1}));
  EXPECT_EQ(ex.flat_items, (std::vector<int64_t>{5, 5, 7}));
  EXPECT_EQ(ex.flat_ops, (std::vector<int64_t>{0, 2, 1}));
  EXPECT_EQ(ex.target, 0);
}

TEST(ServeTest, SessionTrimDropsOldestMacroItems) {
  serve::SessionStoreConfig cfg;
  cfg.max_events_per_session = 3;
  serve::SessionStore store(cfg);
  ASSERT_TRUE(store.ApplyEvent(1, {1, 0}).ok());
  ASSERT_TRUE(store.ApplyEvent(1, {1, 1}).ok());
  ASSERT_TRUE(store.ApplyEvent(1, {2, 0}).ok());
  auto r = store.ApplyEvent(1, {3, 0});  // 4 flat events > cap of 3
  ASSERT_TRUE(r.ok());
  const Example ex = r.value()->ToExample();
  EXPECT_EQ(ex.macro_items, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(ex.flat_items, (std::vector<int64_t>{2, 3}));
}

TEST(ServeTest, SnapshotRoundTripsBitForBit) {
  FailpointEnvGuard guard;
  serve::SessionStore store;
  ASSERT_TRUE(store.ApplyEvent(42, {5, 0}).ok());
  ASSERT_TRUE(store.ApplyEvent(42, {5, 2}).ok());
  ASSERT_TRUE(store.ApplyEvent(42, {7, 1}).ok());
  ASSERT_TRUE(store.ApplyEvent(1, {3, 3}).ok());
  ASSERT_TRUE(store.ApplyEvent(7, {9, 0}).ok());

  const std::string path = TempPath("serve_snapshot.bin");
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  const std::string original = store.Serialize();

  serve::SessionStore restored;
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(restored.size(), 3u);
  // Bit-for-bit: the restored store re-serializes to the same bytes (the
  // LRU stamps are runtime state, deliberately outside the image).
  EXPECT_EQ(restored.Serialize(), original);
  // Content round-trip, not just bytes.
  auto s = restored.Get(42);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value()->flat_items, (std::vector<int64_t>{5, 5, 7}));
  // And the restored store keeps serving incrementally.
  ASSERT_TRUE(restored.ApplyEvent(42, {7, 2}).ok());
  auto s2 = restored.Get(42);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value()->ToExample().macro_ops.back(),
            (std::vector<int64_t>{1, 2}));
}

TEST(ServeTest, CorruptSnapshotIsRejectedAndStoreUnchanged) {
  FailpointEnvGuard guard;
  serve::SessionStore store;
  ASSERT_TRUE(store.ApplyEvent(1, {2, 0}).ok());
  const std::string path = TempPath("serve_snapshot_corrupt.bin");
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  {
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    std::string bytes = std::move(data).value();
    bytes[bytes.size() / 2] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }
  serve::SessionStore victim;
  ASSERT_TRUE(victim.ApplyEvent(9, {1, 1}).ok());
  const std::string before = victim.Serialize();
  const Status s = victim.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
  EXPECT_EQ(victim.Serialize(), before);  // unchanged on failure
}

/// Three sessions, one of them with a two-event run (see
/// SnapshotRoundTripsBitForBit), serialized.
std::string ThreeSessionImage() {
  serve::SessionStore store;
  EXPECT_TRUE(store.ApplyEvent(42, {5, 0}).ok());
  EXPECT_TRUE(store.ApplyEvent(42, {5, 2}).ok());
  EXPECT_TRUE(store.ApplyEvent(42, {7, 1}).ok());
  EXPECT_TRUE(store.ApplyEvent(1, {3, 3}).ok());
  EXPECT_TRUE(store.ApplyEvent(7, {9, 0}).ok());
  return store.Serialize();
}

/// Loads each image into a store holding other content; every load must
/// fail with InvalidArgument and leave that store as it was.
void ExpectEveryImageRejected(const std::vector<std::string>& images,
                              const char* file) {
  serve::SessionStore victim;
  ASSERT_TRUE(victim.ApplyEvent(9, {1, 1}).ok());
  const std::string before = victim.Serialize();
  const std::string path = TempPath(file);
  for (size_t i = 0; i < images.size(); ++i) {
    WriteAll(path, images[i]);
    const Status s = victim.LoadSnapshot(path);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "image " << i;
    EXPECT_EQ(victim.Serialize(), before) << "image " << i;
  }
}

TEST(ServeTest, SnapshotTruncationAtEveryLengthIsRejected) {
  FailpointEnvGuard guard;
  const std::string full = ThreeSessionImage();
  std::vector<std::string> images;
  for (size_t len = 0; len < full.size(); ++len) {
    images.push_back(full.substr(0, len));
  }
  ExpectEveryImageRejected(images, "serve_snapshot_trunc.bin");
}

TEST(ServeTest, SnapshotEverySingleBitFlipIsRejected) {
  FailpointEnvGuard guard;
  const std::string full = ThreeSessionImage();
  std::vector<std::string> images;
  for (size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      images.push_back(full);
      images.back()[byte] = static_cast<char>(full[byte] ^ (1 << bit));
    }
  }
  ExpectEveryImageRejected(images, "serve_snapshot_flip.bin");
}

// The version-2 layout stored each session's merged macro view next to its
// run. Such an image, hand-built for session 42's run (5,0) (5,2) (7,1) and
// sealed with a valid CRC, is refused by its version; the store keeps what
// it held.
TEST(ServeTest, V2SnapshotIsRejectedAsUnsupportedVersion) {
  FailpointEnvGuard guard;
  std::string image("EMBSRSST", 8);
  auto put = [&image](auto value) {
    image.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  auto put_column = [&put](const std::vector<int64_t>& column) {
    put(static_cast<uint64_t>(column.size()));
    for (int64_t x : column) put(x);
  };
  put(uint32_t{2});    // version
  put(uint64_t{1});    // session count
  put(uint64_t{42});   // session id
  put_column({5, 7});  // macro items, then each one's operations
  put_column({0, 2});
  put_column({1});
  put_column({5, 5, 7});  // flat items
  put_column({0, 2, 1});  // flat operations
  put(Crc32(image.data(), image.size()));

  serve::SessionStore victim;
  ASSERT_TRUE(victim.ApplyEvent(9, {1, 1}).ok());
  const std::string before = victim.Serialize();
  const std::string path = TempPath("serve_snapshot_v2.bin");
  WriteAll(path, image);
  const Status s = victim.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unsupported session snapshot version 2"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(victim.Serialize(), before);
}

// A CRC-valid snapshot is not a trusted one: restored for a frontend, it
// must hold only ids Submit would accept, or the first request on the
// restored session indexes past the model's embedding tables.
TEST(ServeTest, OutOfVocabularySnapshotIsRejectedAtLoad) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  TrainConfig tc;
  tc.embedding_dim = 8;
  auto primary =
      CreateModel("STAMP", data.num_items, data.num_operations, tc);
  ASSERT_NE(primary, nullptr);
  primary->EnsureEvalMode();
  serve::ManualClock mc;
  serve::ServeFrontend fe(TestConfig(), primary.get(), &fallback,
                          mc.clock());
  ASSERT_TRUE(fe.Submit(Req(1, 5, 2, 1)).ok());
  ASSERT_TRUE(fe.ProcessNext().ok());
  const std::string before = fe.store().Serialize();

  // A bare store takes any id, so its snapshot is CRC-valid: session 7
  // holds a valid event, then item 10 of the 10-item vocabulary, or then
  // an operation equal to num_operations.
  const std::string path = TempPath("serve_oov_snapshot.bin");
  for (const MicroBehavior& bad :
       {MicroBehavior{data.num_items, 0},
        MicroBehavior{2, data.num_operations}}) {
    serve::SessionStore source;
    ASSERT_TRUE(source.ApplyEvent(7, MicroBehavior{3, 0}).ok());
    ASSERT_TRUE(source.ApplyEvent(7, bad).ok());
    ASSERT_TRUE(source.SaveSnapshot(path).ok());
    const Status s = fe.LoadSnapshot(path);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_EQ(fe.store().Serialize(), before);
  }

  ASSERT_TRUE(fe.Submit(Req(2, 7, 4, 3)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().status.ok());
  EXPECT_FALSE(r.value().degraded);
  auto state = fe.store().Get(7);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value()->flat_items, (std::vector<int64_t>{4}));
  EXPECT_EQ(r.value().top_items,
            TopKIndices(primary->ScoreAll(state.value()->ToExample()),
                        TestConfig().top_k));
}

TEST(ServeTest, StoreEvictsLeastRecentlyTouchedSession) {
  serve::SessionStoreConfig cfg;
  cfg.max_sessions = 2;
  serve::SessionStore store(cfg);
  ASSERT_TRUE(store.ApplyEvent(1, {1, 0}).ok());
  ASSERT_TRUE(store.ApplyEvent(2, {2, 0}).ok());
  ASSERT_TRUE(store.ApplyEvent(1, {3, 0}).ok());  // refresh session 1
  ASSERT_TRUE(store.ApplyEvent(3, {4, 0}).ok());  // evicts session 2
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_TRUE(store.Get(1).ok());
  EXPECT_EQ(store.Get(2).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Get(3).ok());
}

// ---------------------------------------------------------------------------
// (f) Train/serve parity: the server scores exactly what offline
// preprocessing builds from each session's event run.

/// The test's own account of what the store should hold: each live
/// session's event log under the trim rule (while the log is over the cap
/// and holds more than one same-item run, its oldest run goes), with LRU
/// eviction past `max_sessions`.
class StoreMirror {
 public:
  explicit StoreMirror(serve::SessionStoreConfig cfg) : cfg_(cfg) {}

  void Apply(uint64_t id, const MicroBehavior& ev) {
    Log& log = logs_[id];
    log.items.push_back(ev.item);
    log.ops.push_back(ev.operation);
    while (log.items.size() > cfg_.max_events_per_session) {
      size_t run = 1;
      while (run < log.items.size() && log.items[run] == log.items[0]) ++run;
      if (run == log.items.size()) break;
      log.items.erase(log.items.begin(), log.items.begin() + run);
      log.ops.erase(log.ops.begin(), log.ops.begin() + run);
      ++trims_;
    }
    log.touch = ++touch_;
    if (logs_.size() > cfg_.max_sessions) {
      auto victim = logs_.begin();
      for (auto it = logs_.begin(); it != logs_.end(); ++it) {
        if (it->second.touch < victim->second.touch) victim = it;
      }
      evicted_.push_back(victim->first);
      logs_.erase(victim);
    }
  }

  /// A restored snapshot restarts recency in session-id order.
  void RestartRecency() {
    touch_ = 0;
    for (auto& [id, log] : logs_) log.touch = ++touch_;
  }

  Example ExampleOf(uint64_t id) const {
    const Log& log = logs_.at(id);
    return ExampleFromEvents(log.items, log.ops);
  }
  /// The last item of `id`'s live run, or -1.
  int64_t LastItem(uint64_t id) const {
    auto it = logs_.find(id);
    return it == logs_.end() ? -1 : it->second.items.back();
  }
  size_t size() const { return logs_.size(); }
  int64_t trims() const { return trims_; }
  const std::vector<uint64_t>& evicted() const { return evicted_; }

 private:
  struct Log {
    std::vector<int64_t> items;
    std::vector<int64_t> ops;
    uint64_t touch = 0;
  };
  serve::SessionStoreConfig cfg_;
  std::map<uint64_t, Log> logs_;
  uint64_t touch_ = 0;
  int64_t trims_ = 0;
  std::vector<uint64_t> evicted_;
};

TEST(ServeTest, SeededStreamServesWhatTheOfflinePipelineBuilds) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  TrainConfig tc;
  tc.embedding_dim = 8;
  auto primary =
      CreateModel("STAMP", data.num_items, data.num_operations, tc);
  ASSERT_NE(primary, nullptr);
  primary->EnsureEvalMode();

  serve::ServeConfig cfg = TestConfig();
  cfg.store.max_sessions = 48;           // 96 session ids: sessions evict
  cfg.store.max_events_per_session = 6;  // and trim
  serve::ManualClock mc;  // never advances: no deadline can expire
  auto fe = std::make_unique<serve::ServeFrontend>(cfg, primary.get(),
                                                   &fallback, mc.clock());
  StoreMirror mirror(cfg.store);

  constexpr int kEvents = 6000;
  constexpr uint64_t kSessionIds = 96;
  Rng rng(20221);
  std::set<uint64_t> seen;
  int full_price = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (i == kEvents / 2) {
      // Halfway, the stream moves to a fresh frontend whose empty store is
      // loaded from the old one's snapshot.
      const std::string path = TempPath("serve_parity_snapshot.bin");
      ASSERT_TRUE(fe->store().SaveSnapshot(path).ok());
      const std::string image = fe->store().Serialize();
      fe = std::make_unique<serve::ServeFrontend>(cfg, primary.get(),
                                                  &fallback, mc.clock());
      ASSERT_TRUE(fe->LoadSnapshot(path).ok());
      ASSERT_EQ(fe->store().Serialize(), image);
      mirror.RestartRecency();
    }
    // Low ids are hot (they live long and trim), high ids cold (they come
    // and get evicted).
    const uint64_t sid = rng.UniformInt(1 + rng.UniformInt(kSessionIds));
    seen.insert(sid);
    // Four in ten events repeat the session's last item, so runs form.
    const int64_t last = mirror.LastItem(sid);
    const int64_t item =
        last >= 0 && rng.Bernoulli(0.4)
            ? last
            : static_cast<int64_t>(
                  rng.UniformInt(static_cast<uint64_t>(data.num_items)));
    const MicroBehavior ev{item, static_cast<int64_t>(rng.UniformInt(
                                     static_cast<uint64_t>(
                                         data.num_operations)))};
    const size_t evicted_before = mirror.evicted().size();
    mirror.Apply(sid, ev);

    ASSERT_TRUE(fe->Submit(Req(static_cast<uint64_t>(i) + 1, sid, ev.item,
                               ev.operation))
                    .ok());
    auto r = fe->ProcessNext();
    ASSERT_TRUE(r.ok());
    const serve::ServeResponse& resp = r.value();
    ASSERT_TRUE(resp.status.ok());

    ASSERT_EQ(fe->store().size(), mirror.size()) << "event " << i;
    auto state = fe->store().Get(sid);
    ASSERT_TRUE(state.ok());
    const Example ex = state.value()->ToExample();
    ASSERT_TRUE(SameExample(ex, mirror.ExampleOf(sid))) << "event " << i;
    if (mirror.evicted().size() > evicted_before) {
      EXPECT_EQ(fe->store().Get(mirror.evicted().back()).status().code(),
                StatusCode::kNotFound);
    }
    if (!resp.degraded) {
      ++full_price;
      ASSERT_EQ(resp.top_items, TopKIndices(primary->ScoreAll(ex), cfg.top_k))
          << "event " << i;
    }
  }
  EXPECT_EQ(full_price, kEvents);
  EXPECT_GE(seen.size(), 64u);
  EXPECT_GT(mirror.trims(), 0);
  EXPECT_GT(mirror.evicted().size(), 0u);
}

// ---------------------------------------------------------------------------
// Latency injection composes with deadline accounting.

TEST(ServeTest, InjectedScorerStallEatsTheBudget) {
  FailpointEnvGuard guard;
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items);  // free by itself
  serve::ServeFrontend fe(TestConfig(), &primary, &fallback, mc.clock());

  // A 60 ms injected stall against the 50 ms budget: the stall flows
  // through the frontend's clock, so the post-score deadline check sees
  // it and discards the full-price result.
  robust::Failpoints::Global().SetDelay("serve.score", 1.0, /*delay_ms=*/60,
                                        /*limit=*/1);
  ASSERT_TRUE(fe.Submit(Req(1)).ok());
  auto r = fe.ProcessNext();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().degraded_reason, "score_deadline");
  EXPECT_GE(r.value().latency_ms, 60.0);
}

// ---------------------------------------------------------------------------
// Chaos smoke: invariant-only assertions under whatever EMBSR_FAILPOINTS
// the environment armed (the sanitizer matrix's chaos leg arms scorer and
// store failures plus forced sheds). Deliberately no ClearAll: external
// chaos merges with the scripted traffic.

TEST(ServeChaos, SurvivesMixedTrafficWithInvariantsIntact) {
  const ProcessedDataset data = TinyData();
  serve::PopularityScorer fallback;
  ASSERT_TRUE(fallback.Fit(data).ok());
  serve::ManualClock mc;
  StubScorer primary(data.num_items, &mc, /*cost_ns=*/2 * kMs);
  serve::ServeConfig cfg = TestConfig();
  cfg.queue_capacity = 8;
  serve::ServeFrontend fe(cfg, &primary, &fallback, mc.clock());

  Rng traffic(123);
  int answered = 0;
  int shed = 0;
  int abandoned = 0;
  for (uint64_t id = 1; id <= 400; ++id) {
    const Status s = fe.Submit(Req(id, /*session=*/1 + id % 13,
                                   /*item=*/static_cast<int64_t>(
                                       traffic.UniformInt(10)),
                                   /*op=*/static_cast<int64_t>(
                                       traffic.UniformInt(4))));
    if (!s.ok()) {
      ASSERT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
    // Drain lazily so spikes of un-drained requests age in the queue.
    if (id % 3 == 0) {
      mc.Advance(5 * kMs);
      while (fe.queue_depth() > 2) {
        auto r = fe.ProcessNext();
        ASSERT_TRUE(r.ok());
        const serve::ServeResponse& resp = r.value();
        if (resp.status.ok()) {
          ++answered;
          ASSERT_FALSE(resp.top_items.empty());
          ASSERT_LE(resp.top_items.size(), cfg.top_k);
          ASSERT_EQ(resp.top_items.size(), resp.top_scores.size());
          if (resp.degraded) {
            ASSERT_FALSE(resp.degraded_reason.empty());
          }
        } else {
          ASSERT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
          ++abandoned;
        }
      }
    }
  }
  for (const auto& resp : fe.ProcessAll()) {
    if (resp.status.ok()) {
      ++answered;
    } else {
      ++abandoned;
    }
  }
  EXPECT_GT(answered, 0);
  EXPECT_EQ(fe.queue_depth(), 0u);
  // Every submitted request is accounted for exactly once.
  EXPECT_EQ(answered + shed + abandoned, 400);

  // The store still snapshots and restores cleanly after the storm (skip
  // under an env-armed store failpoint, which injects lookup failures).
  const std::string path = TempPath("serve_chaos_snapshot.bin");
  ASSERT_TRUE(fe.store().SaveSnapshot(path).ok());
  serve::SessionStore restored;
  const Status load = restored.LoadSnapshot(path);
  if (load.ok()) {
    EXPECT_EQ(restored.Serialize(), fe.store().Serialize());
  }
}

}  // namespace
}  // namespace embsr
