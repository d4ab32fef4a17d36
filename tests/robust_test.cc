#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/embsr_model.h"
#include "datagen/generator.h"
#include "nn/layers.h"
#include "robust/ckpt_manager.h"
#include "robust/failpoint.h"
#include "robust/health.h"
#include "train/experiment.h"
#include "util/check.h"
#include "util/fs_util.h"

namespace embsr {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class FailpointEnvGuard {
 public:
  FailpointEnvGuard() { robust::Failpoints::Global().ClearAll(); }
  ~FailpointEnvGuard() { robust::Failpoints::Global().ClearAll(); }
};

// ---------------------------------------------------------------------------
// Failpoints

TEST(FailpointTest, UnarmedSiteNeverFails) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.ShouldFail("nope"));
  EXPECT_EQ(fp.TriggerCount("nope"), 0);
}

TEST(FailpointTest, ProbabilityOneAlwaysFails) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.Set("always", 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fp.ShouldFail("always"));
  EXPECT_EQ(fp.TriggerCount("always"), 10);
}

TEST(FailpointTest, ProbabilityZeroNeverFails) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.Set("never", 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.ShouldFail("never"));
}

TEST(FailpointTest, LimitCapsTriggers) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.Set("capped", 1.0, /*limit=*/2);
  EXPECT_TRUE(fp.ShouldFail("capped"));
  EXPECT_TRUE(fp.ShouldFail("capped"));
  EXPECT_FALSE(fp.ShouldFail("capped"));
  EXPECT_EQ(fp.TriggerCount("capped"), 2);
}

TEST(FailpointTest, SkipDelaysArming) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.Set("later", 1.0, /*limit=*/1, /*skip=*/2);
  EXPECT_FALSE(fp.ShouldFail("later"));  // skipped
  EXPECT_FALSE(fp.ShouldFail("later"));  // skipped
  EXPECT_TRUE(fp.ShouldFail("later"));   // armed
  EXPECT_FALSE(fp.ShouldFail("later"));  // limit exhausted
}

TEST(FailpointTest, ConfigureParsesFullGrammar) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  ASSERT_TRUE(fp.Configure("a=1,b=0.0,c=1x2,d=1x1@1").ok());
  EXPECT_TRUE(fp.ShouldFail("a"));
  EXPECT_FALSE(fp.ShouldFail("b"));
  EXPECT_TRUE(fp.ShouldFail("c"));
  EXPECT_TRUE(fp.ShouldFail("c"));
  EXPECT_FALSE(fp.ShouldFail("c"));
  EXPECT_FALSE(fp.ShouldFail("d"));
  EXPECT_TRUE(fp.ShouldFail("d"));
}

TEST(FailpointTest, ConfigureRejectsMalformedSpecs) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  EXPECT_FALSE(fp.Configure("noequals").ok());
  EXPECT_FALSE(fp.Configure("site=notanumber").ok());
  EXPECT_FALSE(fp.Configure("site=2.0").ok());   // prob > 1
  EXPECT_FALSE(fp.Configure("site=-0.5").ok());  // prob < 0
  EXPECT_FALSE(fp.Configure("=1").ok());         // empty site
}

TEST(FailpointTest, ReinitReadsEnvironment) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  setenv("EMBSR_FAILPOINTS", "env.site=1x1", 1);
  fp.ReinitFromEnv();
  EXPECT_TRUE(fp.ShouldFail("env.site"));
  EXPECT_FALSE(fp.ShouldFail("env.site"));
  unsetenv("EMBSR_FAILPOINTS");
  fp.ReinitFromEnv();
  EXPECT_FALSE(fp.ShouldFail("env.site"));
}

TEST(FailpointTest, LatencyModeDelaysInsteadOfFailing) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  ASSERT_TRUE(fp.Configure("slow=1@20ms").ok());
  // A latency site never hard-fails; every evaluation asks for the stall.
  EXPECT_FALSE(fp.ShouldFail("slow"));
  EXPECT_EQ(fp.ShouldDelayMs("slow"), 20);
  EXPECT_EQ(fp.ShouldDelayMs("slow"), 20);
  EXPECT_EQ(fp.TriggerCount("slow"), 2);
  // ...and ShouldFail on it consumed no limit/trigger state.
  ASSERT_TRUE(fp.Configure("slow2=1x1@5ms").ok());
  EXPECT_FALSE(fp.ShouldFail("slow2"));
  EXPECT_EQ(fp.ShouldDelayMs("slow2"), 5);
  EXPECT_EQ(fp.ShouldDelayMs("slow2"), 0);  // limit exhausted
}

TEST(FailpointTest, SetDelayArmsLatencyMode) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.SetDelay("stall", 1.0, /*delay_ms=*/7, /*limit=*/2);
  EXPECT_EQ(fp.ShouldDelayMs("stall"), 7);
  EXPECT_EQ(fp.ShouldDelayMs("stall"), 7);
  EXPECT_EQ(fp.ShouldDelayMs("stall"), 0);
  EXPECT_EQ(fp.TriggerCount("stall"), 2);
}

TEST(FailpointTest, ErrorModeSitesNeverDelay) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  fp.Set("err", 1.0, /*limit=*/1);
  // Asking the wrong mode must not consume the one allowed trigger.
  EXPECT_EQ(fp.ShouldDelayMs("err"), 0);
  EXPECT_EQ(fp.TriggerCount("err"), 0);
  EXPECT_TRUE(fp.ShouldFail("err"));
}

TEST(FailpointTest, ConfigureRejectsMalformedLatencySpecs) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  EXPECT_FALSE(fp.Configure("s=1@ms").ok());      // no digits
  EXPECT_FALSE(fp.Configure("s=1@-3ms").ok());    // negative delay
  EXPECT_FALSE(fp.Configure("s=1@2.5ms").ok());   // fractional delay
  EXPECT_FALSE(fp.Configure("s=1@0ms").ok());     // zero-latency delay
  EXPECT_FALSE(fp.Configure("s=1@20msx").ok());   // trailing junk
  // A malformed clause must not arm the site.
  EXPECT_FALSE(fp.ShouldFail("s"));
  EXPECT_EQ(fp.ShouldDelayMs("s"), 0);
  // "@0" stays legal as a skip count (classic grammar).
  EXPECT_TRUE(fp.Configure("s=1x1@0").ok());
  EXPECT_TRUE(fp.ShouldFail("s"));
}

TEST(FailpointTest, InjectedFailureNamesTheSite) {
  Status s = robust::InjectedFailure("some.site", "doing a thing");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("some.site"), std::string::npos);
  EXPECT_NE(s.message().find("doing a thing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// HealthGuard

robust::HealthConfig TestHealthConfig() {
  robust::HealthConfig cfg;
  cfg.max_strikes = 3;
  cfg.grad_limit = 100.0;
  cfg.lr_backoff = 0.5;
  return cfg;
}

TEST(HealthGuardTest, HealthyBatchesPassThrough) {
  robust::HealthGuard guard(TestHealthConfig());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(guard.CheckBatch(1.0, 2.0), robust::BatchVerdict::kOk);
  }
  EXPECT_EQ(guard.strikes(), 0);
  EXPECT_EQ(guard.lr_scale(), 1.0);
}

TEST(HealthGuardTest, NanLossEarnsStrikesThenRollback) {
  robust::HealthGuard guard(TestHealthConfig());
  const double nan = std::nan("");
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(guard.lr_scale(), 0.5);
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(guard.lr_scale(), 0.25);
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kRollback);
  guard.NotifyRollback();
  EXPECT_EQ(guard.strikes(), 0);
  EXPECT_EQ(guard.lr_scale(), 0.125);  // backoff survives the rollback
}

TEST(HealthGuardTest, GoodBatchesResetStrikesAndRecoverLr) {
  robust::HealthGuard guard(TestHealthConfig());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(guard.CheckBatch(inf, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(guard.CheckBatch(1.0, 1.0), robust::BatchVerdict::kOk);
  EXPECT_EQ(guard.strikes(), 0);
  EXPECT_EQ(guard.lr_scale(), 1.0);  // one good batch undoes one backoff
}

TEST(HealthGuardTest, ExplodingGradNormIsUnhealthy) {
  robust::HealthConfig cfg = TestHealthConfig();
  EXPECT_TRUE(robust::HealthGuard::IsUnhealthy(cfg, 1.0, 1000.0));
  EXPECT_FALSE(robust::HealthGuard::IsUnhealthy(cfg, 1.0, 10.0));
  EXPECT_TRUE(robust::HealthGuard::IsUnhealthy(cfg, std::nan(""), 1.0));
  cfg.grad_limit = 0.0;  // 0 disables the norm check, not the NaN check
  EXPECT_FALSE(robust::HealthGuard::IsUnhealthy(cfg, 1.0, 1e9));
  EXPECT_TRUE(
      robust::HealthGuard::IsUnhealthy(cfg, 1.0, std::nan("")));
}

TEST(HealthGuardTest, LrScaleIsFloored) {
  robust::HealthConfig cfg = TestHealthConfig();
  cfg.max_strikes = 1000;
  robust::HealthGuard guard(cfg);
  for (int i = 0; i < 100; ++i) guard.CheckBatch(std::nan(""), 1.0);
  EXPECT_GE(guard.lr_scale(), cfg.min_lr_scale);
}

TEST(HealthGuardTest, ExportsStrikeAndBackoffGauges) {
  auto& reg = obs::Registry::Global();
  obs::Gauge* scale = reg.GetGauge("robust/health_lr_scale");
  obs::Gauge* strikes = reg.GetGauge("robust/health_strikes");
  obs::Gauge* level = reg.GetGauge("robust/health_backoff_level");
  const double nan = std::numeric_limits<double>::quiet_NaN();

  robust::HealthGuard guard(TestHealthConfig());  // ctor exports baseline
  EXPECT_EQ(strikes->value(), 0.0);
  EXPECT_EQ(scale->value(), 1.0);
  EXPECT_EQ(level->value(), 0.0);

  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(strikes->value(), 1.0);
  EXPECT_EQ(scale->value(), 0.5);
  EXPECT_EQ(level->value(), 1.0);

  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(strikes->value(), 2.0);
  EXPECT_EQ(scale->value(), 0.25);
  EXPECT_EQ(level->value(), 2.0);

  // A good batch clears strikes and recovers one backoff step; the gauges
  // follow in the same call.
  EXPECT_EQ(guard.CheckBatch(1.0, 1.0), robust::BatchVerdict::kOk);
  EXPECT_EQ(strikes->value(), 0.0);
  EXPECT_EQ(scale->value(), 0.5);
  EXPECT_EQ(level->value(), 1.0);
}

TEST(HealthGuardTest, RollbackEventsLandInCounterAndGauges) {
  auto& reg = obs::Registry::Global();
  obs::Counter* rollbacks = reg.GetCounter("robust/rollbacks");
  obs::Gauge* strikes = reg.GetGauge("robust/health_strikes");
  const int64_t before = rollbacks->value();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  robust::HealthGuard guard(TestHealthConfig());  // max_strikes = 3
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kSkip);
  EXPECT_EQ(guard.CheckBatch(nan, 1.0), robust::BatchVerdict::kRollback);
  guard.NotifyRollback();
  EXPECT_EQ(rollbacks->value(), before + 1);
  EXPECT_EQ(guard.strikes(), 0);
  EXPECT_EQ(strikes->value(), 0.0);
}

TEST(HealthGuardTest, ConfigFromEnv) {
  setenv("EMBSR_HEALTH_MAX_STRIKES", "7", 1);
  setenv("EMBSR_HEALTH_GRAD_LIMIT", "123.5", 1);
  setenv("EMBSR_HEALTH_LR_BACKOFF", "0.25", 1);
  const auto cfg = robust::HealthConfig::FromEnv();
  EXPECT_EQ(cfg.max_strikes, 7);
  EXPECT_DOUBLE_EQ(cfg.grad_limit, 123.5);
  EXPECT_DOUBLE_EQ(cfg.lr_backoff, 0.25);
  unsetenv("EMBSR_HEALTH_MAX_STRIKES");
  unsetenv("EMBSR_HEALTH_GRAD_LIMIT");
  unsetenv("EMBSR_HEALTH_LR_BACKOFF");
}

// ---------------------------------------------------------------------------
// CheckpointManager

robust::CheckpointManagerConfig ManagerConfig(const std::string& dir,
                                              int keep = 3) {
  robust::CheckpointManagerConfig cfg;
  cfg.dir = dir;
  cfg.keep_last = keep;
  cfg.every_epochs = 1;
  return cfg;
}

nn::TrainState StateForEpoch(int epoch) {
  nn::TrainState st;
  st.epoch = epoch;
  st.best_mrr = 0.01 * epoch;
  st.rng = Rng(42).SaveState();
  return st;
}

TEST(CheckpointManagerTest, DisabledWithoutDirectory) {
  robust::CheckpointManager mgr(ManagerConfig(""), "run");
  EXPECT_FALSE(mgr.enabled());
  Rng rng(1);
  nn::Linear lin(2, 2, &rng);
  nn::TrainState st;
  EXPECT_EQ(mgr.Save(lin, StateForEpoch(1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(mgr.LoadLatest(&lin, &st).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointManagerTest, RetentionKeepsNewestN) {
  const std::string dir = TempPath("ckpt_retention");
  robust::CheckpointManager mgr(ManagerConfig(dir, /*keep=*/2), "run");
  Rng rng(2);
  nn::Linear lin(2, 2, &rng);
  for (int epoch = 1; epoch <= 4; ++epoch) {
    ASSERT_TRUE(mgr.Save(lin, StateForEpoch(epoch)).ok());
  }
  const auto files = mgr.ListCheckpoints();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("epoch000003"), std::string::npos);
  EXPECT_NE(files[1].find("epoch000004"), std::string::npos);
}

TEST(CheckpointManagerTest, LoadLatestSkipsCorruptCheckpoint) {
  const std::string dir = TempPath("ckpt_corrupt");
  robust::CheckpointManager mgr(ManagerConfig(dir), "run");
  Rng rng(3);
  nn::Linear lin(2, 2, &rng);
  ASSERT_TRUE(mgr.Save(lin, StateForEpoch(1)).ok());
  ASSERT_TRUE(mgr.Save(lin, StateForEpoch(2)).ok());

  // Corrupt the newest file; LoadLatest should fall back to epoch 1.
  const auto files = mgr.ListCheckpoints();
  ASSERT_EQ(files.size(), 2u);
  {
    auto data = ReadFileToString(files.back());
    ASSERT_TRUE(data.ok());
    std::string bytes = std::move(data).value();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream(files.back(), std::ios::binary | std::ios::trunc)
        << bytes;
  }
  nn::TrainState st;
  ASSERT_TRUE(mgr.LoadLatest(&lin, &st).ok());
  EXPECT_EQ(st.epoch, 1);
}

TEST(CheckpointManagerTest, LoadLatestReportsSkippedCorruptPaths) {
  const std::string dir = TempPath("ckpt_skipped_paths");
  robust::CheckpointManager mgr(ManagerConfig(dir, /*keep=*/3), "run");
  obs::Counter* skipped_counter =
      obs::Registry::Global().GetCounter("robust/ckpt_corrupt_skipped");
  const int64_t before = skipped_counter->value();
  Rng rng(5);
  nn::Linear lin(2, 2, &rng);
  for (int epoch = 1; epoch <= 3; ++epoch) {
    ASSERT_TRUE(mgr.Save(lin, StateForEpoch(epoch)).ok());
  }
  const auto files = mgr.ListCheckpoints();
  ASSERT_EQ(files.size(), 3u);
  {
    auto data = ReadFileToString(files.back());
    ASSERT_TRUE(data.ok());
    std::string bytes = std::move(data).value();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream(files.back(), std::ios::binary | std::ios::trunc) << bytes;
  }

  nn::TrainState st;
  std::vector<std::string> skipped;
  ASSERT_TRUE(mgr.LoadLatest(&lin, &st, &skipped).ok());
  EXPECT_EQ(st.epoch, 2);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], files.back());
  EXPECT_EQ(skipped_counter->value(), before + 1);
}

TEST(CheckpointManagerTest, AllCorruptNamesEveryPathInStatus) {
  const std::string dir = TempPath("ckpt_all_corrupt");
  robust::CheckpointManager mgr(ManagerConfig(dir, /*keep=*/2), "run");
  Rng rng(6);
  nn::Linear lin(2, 2, &rng);
  ASSERT_TRUE(mgr.Save(lin, StateForEpoch(1)).ok());
  ASSERT_TRUE(mgr.Save(lin, StateForEpoch(2)).ok());
  for (const auto& path : mgr.ListCheckpoints()) {
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    std::string bytes = std::move(data).value();
    bytes[bytes.size() / 3] ^= 0x11;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  nn::TrainState st;
  std::vector<std::string> skipped;
  const Status s = mgr.LoadLatest(&lin, &st, &skipped);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(skipped.size(), 2u);
  EXPECT_NE(s.message().find("skipped 2 corrupt checkpoint(s)"),
            std::string::npos);
  for (const auto& path : skipped) {
    EXPECT_NE(s.message().find(path), std::string::npos);
  }
}

TEST(CheckpointManagerTest, LoadLatestOnFreshRunIsNotFound) {
  const std::string dir = TempPath("ckpt_fresh");
  robust::CheckpointManager mgr(ManagerConfig(dir), "never_saved");
  Rng rng(4);
  nn::Linear lin(2, 2, &rng);
  nn::TrainState st;
  EXPECT_EQ(mgr.LoadLatest(&lin, &st).code(), StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, SaveCadenceHonorsEveryEpochs) {
  auto cfg = ManagerConfig(TempPath("ckpt_cadence"));
  cfg.every_epochs = 3;
  robust::CheckpointManager mgr(cfg, "run");
  EXPECT_FALSE(mgr.ShouldSaveAfterEpoch(1, 10));
  EXPECT_FALSE(mgr.ShouldSaveAfterEpoch(2, 10));
  EXPECT_TRUE(mgr.ShouldSaveAfterEpoch(3, 10));
  EXPECT_TRUE(mgr.ShouldSaveAfterEpoch(10, 10));  // final epoch always saves
}

TEST(CheckpointManagerTest, SanitizesRunIds) {
  EXPECT_EQ(robust::CheckpointManager::SanitizeRunId("EMBSR/JD app:1"),
            "EMBSR_JD_app_1");
}

// ---------------------------------------------------------------------------
// Graceful degradation across the experiment harness

const ProcessedDataset& SmallData() {
  static const ProcessedDataset* d = [] {
    auto r = MakeDataset(JdAppliancesConfig(0.02));
    EMBSR_CHECK_OK(r);
    return new ProcessedDataset(std::move(r).value());
  }();
  return *d;
}

TEST(DegradedSweepTest, UnknownModelBecomesFailedCell) {
  FailpointEnvGuard guard;
  ExperimentResult r =
      RunExperiment("NOT-A-MODEL", SmallData(), TrainConfig(), {20});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown model"), std::string::npos);
  EXPECT_TRUE(r.eval.report.hit.empty());
}

TEST(DegradedSweepTest, CellFailpointFailsOneCellAndSweepContinues) {
  FailpointEnvGuard guard;
  robust::Failpoints::Global().Set("experiment.cell", 1.0, /*limit=*/1);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.max_train_examples = 20;
  cfg.validate_every = 0;

  std::vector<ExperimentResult> results;
  for (const char* name : {"S-POP", "SKNN"}) {
    results.push_back(RunExperiment(name, SmallData(), cfg, {20}, 10));
  }
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("experiment.cell"), std::string::npos);
  EXPECT_TRUE(results[1].ok);
  EXPECT_TRUE(results[1].eval.report.hit.contains(20));

  // The table renderer must survive the failed column.
  const std::string table = FormatMetricTable("jd_appliances", results, {20});
  EXPECT_NE(table.find("failed"), std::string::npos);
}

TEST(DegradedSweepTest, TrainingSurvivesInjectedNanGradients) {
  FailpointEnvGuard guard;
  auto& fp = robust::Failpoints::Global();
  auto* skipped =
      obs::Registry::Global().GetCounter("robust/skipped_batches");
  const int64_t skipped_before = skipped->value();

  // Poison the gradients of the first two batches; the health guard must
  // skip them and the run must still converge to finite parameters.
  fp.Set("train.nan_grad", 1.0, /*limit=*/2);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.embedding_dim = 8;
  cfg.batch_size = 16;
  cfg.max_train_examples = 64;
  cfg.validate_every = 0;
  EmbsrModel model("EMBSR", SmallData().num_items,
                   SmallData().num_operations, cfg);
  ASSERT_TRUE(model.Fit(SmallData()).ok());
  EXPECT_EQ(fp.TriggerCount("train.nan_grad"), 2);
  EXPECT_EQ(skipped->value() - skipped_before, 2);
  for (const auto& np : model.NamedParameters()) {
    for (int64_t i = 0; i < np.variable.value().size(); ++i) {
      ASSERT_TRUE(std::isfinite(np.variable.value().data()[i]))
          << np.name << " contains non-finite values after recovery";
    }
  }
}

TEST(DegradedSweepTest, BenchReportRecordsPerCellStatus) {
  FailpointEnvGuard guard;
  const std::string dir = TempPath("bench_json");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  setenv("EMBSR_BENCH_JSON_DIR", dir.c_str(), 1);
  {
    bench::BenchReport report("robust_test");
    ExperimentResult ok_cell;
    ok_cell.model = "S-POP";
    ok_cell.dataset = "jd";
    ok_cell.eval.report.hit[20] = 50.0;
    ok_cell.eval.report.mrr[20] = 25.0;
    ExperimentResult bad_cell;
    bad_cell.model = "EMBSR";
    bad_cell.dataset = "jd";
    bad_cell.ok = false;
    bad_cell.error = "fit failed: injected";
    report.AddResult(ok_cell);
    report.AddResult(bad_cell);
  }  // destructor writes the JSON
  unsetenv("EMBSR_BENCH_JSON_DIR");

  auto json = ReadFileToString(dir + "/BENCH_robust_test.json");
  ASSERT_TRUE(json.ok());
  const std::string& doc = json.value();
  EXPECT_NE(doc.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(doc.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(doc.find("fit failed: injected"), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace embsr
