#include "train/experiment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "datagen/generator.h"
#include "obs/run_logger.h"
#include "util/check.h"
#include "models/baselines_nonneural.h"
#include "models/neural_model.h"
#include "train/model_zoo.h"

namespace embsr {
namespace {

const ProcessedDataset& SmallData() {
  static const ProcessedDataset* d = [] {
    auto r = MakeDataset(JdAppliancesConfig(0.02));
    EMBSR_CHECK_OK(r);
    return new ProcessedDataset(std::move(r).value());
  }();
  return *d;
}

TEST(EvaluatorTest, PerfectModelScoresHundred) {
  // A cheating "model" that always puts the target first.
  class Oracle : public Recommender {
   public:
    explicit Oracle(int64_t n) : n_(n) {}
    std::string name() const override { return "oracle"; }
    Status Fit(const ProcessedDataset&) override { return Status::OK(); }
    std::vector<float> ScoreAll(const Example& ex) override {
      std::vector<float> s(n_, 0.0f);
      s[ex.target] = 1.0f;
      return s;
    }

   private:
    int64_t n_;
  };
  Oracle oracle(SmallData().num_items);
  EvalResult r = Evaluate(&oracle, SmallData().test, {1, 5});
  EXPECT_DOUBLE_EQ(r.report.hit.at(1), 100.0);
  EXPECT_DOUBLE_EQ(r.report.mrr.at(5), 100.0);
  EXPECT_EQ(r.ranks.size(), SmallData().test.size());
  for (int rank : r.ranks) EXPECT_EQ(rank, 1);
}

TEST(EvaluatorTest, MaxExamplesLimitsWork) {
  SPop spop(SmallData().num_items);
  ASSERT_TRUE(spop.Fit(SmallData()).ok());
  EvalResult r = Evaluate(&spop, SmallData().test, {5}, 10);
  EXPECT_EQ(r.ranks.size(), 10u);
}

TEST(EvaluatorTest, ReciprocalRanksMatchRanks) {
  EvalResult r;
  r.ranks = {1, 4, 50};
  auto rr = r.ReciprocalRanksAt(20);
  ASSERT_EQ(rr.size(), 3u);
  EXPECT_DOUBLE_EQ(rr[0], 1.0);
  EXPECT_DOUBLE_EQ(rr[1], 0.25);
  EXPECT_DOUBLE_EQ(rr[2], 0.0);  // beyond the cutoff
}

TEST(ExperimentTest, RunsEndToEnd) {
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.embedding_dim = 8;
  cfg.max_train_examples = 40;
  cfg.validate_every = 0;
  ExperimentResult res =
      RunExperiment("STAMP", SmallData(), cfg, {5, 10, 20}, 20);
  EXPECT_EQ(res.model, "STAMP");
  EXPECT_EQ(res.dataset, SmallData().name);
  EXPECT_EQ(res.eval.ranks.size(), 20u);
  EXPECT_GT(res.fit_seconds, 0.0);
  EXPECT_TRUE(res.eval.report.hit.contains(20));
}

// A non-positive batch_size used to hang Fit (0: empty mini-batches
// forever) or skip all training (-1: the size_t stride wraps). Both sizes
// are rejected up front, before a single optimizer step.
TEST(FitTest, RejectsNonPositiveBatchSizes) {
  for (const int bad : {0, -1}) {
    for (const bool forward : {false, true}) {
      SCOPED_TRACE((forward ? "forward_batch=" : "batch_size=") +
                   std::to_string(bad));
      TrainConfig cfg;
      cfg.epochs = 1;
      cfg.embedding_dim = 8;
      cfg.max_train_examples = 20;
      (forward ? cfg.forward_batch : cfg.batch_size) = bad;
      std::unique_ptr<Recommender> model = CreateModel(
          "STAMP", SmallData().num_items, SmallData().num_operations, cfg);
      ASSERT_NE(model, nullptr);
      auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
      ASSERT_NE(neural, nullptr);
      const Tensor before = neural->Parameters()[0].value();
      const Status s = model->Fit(SmallData());
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
      EXPECT_EQ(neural->Parameters()[0].value().vec(), before.vec());
    }
  }
}

TEST(ExperimentTest, FormatMetricTableContainsAllCells) {
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.embedding_dim = 8;
  cfg.max_train_examples = 30;
  cfg.validate_every = 0;
  std::vector<ExperimentResult> results;
  results.push_back(RunExperiment("S-POP", SmallData(), cfg, {5, 10}, 20));
  results.push_back(RunExperiment("SKNN", SmallData(), cfg, {5, 10}, 20));
  const std::string table = FormatMetricTable("X", results, {5, 10});
  EXPECT_NE(table.find("S-POP"), std::string::npos);
  EXPECT_NE(table.find("SKNN"), std::string::npos);
  EXPECT_NE(table.find("H@5"), std::string::npos);
  EXPECT_NE(table.find("M@10"), std::string::npos);
  EXPECT_NE(table.find("Dataset: X"), std::string::npos);
}

TEST(ExperimentTest, BenchTrainConfigHonorsScale) {
  setenv("EMBSR_BENCH_SCALE", "0.1", 1);
  TrainConfig small = BenchTrainConfig();
  setenv("EMBSR_BENCH_SCALE", "1.0", 1);
  TrainConfig full = BenchTrainConfig();
  unsetenv("EMBSR_BENCH_SCALE");
  EXPECT_LE(small.epochs, full.epochs);
  EXPECT_GT(small.max_train_examples, 0);
}

TEST(RunLoggerTest, EmitsOneJsonlRecordPerEpoch) {
  const std::string path = testing::TempDir() + "/embsr_train_runlog.jsonl";
  std::remove(path.c_str());
  setenv("EMBSR_RUN_LOG", path.c_str(), 1);
  obs::RunLogger::ReinitGlobalFromEnv();

  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.embedding_dim = 8;
  cfg.max_train_examples = 20;
  cfg.validate_every = 0;
  // One neural baseline and EMBSR itself both feed the run log.
  RunExperiment("STAMP", SmallData(), cfg, {20}, 5);
  RunExperiment("EMBSR", SmallData(), cfg, {20}, 5);

  unsetenv("EMBSR_RUN_LOG");
  obs::RunLogger::ReinitGlobalFromEnv();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int stamp_lines = 0, embsr_lines = 0;
  int expected_epoch = 1;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const bool is_stamp = line.find("\"model\":\"STAMP\"") != std::string::npos;
    const bool is_embsr = line.find("\"model\":\"EMBSR\"") != std::string::npos;
    ASSERT_TRUE(is_stamp || is_embsr) << line;
    stamp_lines += is_stamp;
    embsr_lines += is_embsr;
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(expected_epoch)),
              std::string::npos)
        << line;
    expected_epoch = expected_epoch == cfg.epochs ? 1 : expected_epoch + 1;
    EXPECT_NE(line.find("\"loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"grad_norm\":"), std::string::npos);
    EXPECT_NE(line.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"examples_per_sec\":"), std::string::npos);
  }
  EXPECT_EQ(stamp_lines, cfg.epochs);
  EXPECT_EQ(embsr_lines, cfg.epochs);
  std::remove(path.c_str());
}

TEST(ExperimentTest, WilcoxonOnModelPairIsComputable) {
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.embedding_dim = 8;
  cfg.max_train_examples = 40;
  cfg.validate_every = 0;
  auto a = RunExperiment("S-POP", SmallData(), cfg, {20}, 50);
  auto b = RunExperiment("SKNN", SmallData(), cfg, {20}, 50);
  const double p = WilcoxonSignedRankP(a.eval.ReciprocalRanksAt(20),
                                       b.eval.ReciprocalRanksAt(20));
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

}  // namespace
}  // namespace embsr
