// Workload driver of the end-to-end benchmark. One process runs one
// workload (perfbench/run.py starts a fresh process per workload, so the
// thread-local buffer pool, the profiler session, the metrics registry and
// the pool lanes never carry over from another workload) and prints one
// JSON document of raw measurements on stdout: set-up times, timed rounds
// or open-loop phases with every latency sample, correctness checks and,
// with --trace 1, per-layer timings of public calls. run.py turns the raw
// samples into the reported statistics.
//
//   perfbench_e2e --workload <train-zoo|eval-zoo|serve-embsr|serve-churn>
//                 --seed N --seconds S --trace 0|1
//                 [--nominal-qps Q --nominal-requests N --ladder q1,q2,...
//                  --rung-requests N --slo-ms L --max-failed F]
//
// Everything is driven through the public API of train, models, core and
// serve: Fit and Evaluate on their defaults, batching only through
// NeuralSessionModel::ScoreBatch, serving through ServeFrontend.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "datagen/generator.h"
#include "graph/session_graph.h"
#include "metrics/metrics.h"
#include "models/neural_model.h"
#include "models/session_batch.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "par/thread_pool.h"
#include "prof/op_profiler.h"
#include "serve/frontend.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"
#include "train/evaluator.h"
#include "train/model_zoo.h"
#include "util/rng.h"

namespace {

using namespace embsr;  // NOLINT — benchmark binary

// The ROADMAP item 1 model set, at the paper's embedding size.
const std::vector<std::string> kZoo = {"STAMP", "GRU4Rec", "NARM", "SR-GNN",
                                       "EMBSR"};
constexpr int64_t kDim = 100;
constexpr int kSetupRepeats = 9;
// Training examples per model per train-zoo round (three Adam steps at the
// default batch size of 64).
constexpr int kTrainExamples = 192;
// Sessions per model per eval-zoo round; rounds walk the test split.
constexpr size_t kEvalSlice = 256;
// Every k-th full-price served answer is re-derived from the mirror store.
constexpr size_t kVerifyEvery = 20;
// Minimum serve sweeps per run (each a nominal phase plus a rate ladder).
constexpr int kSweeps = 3;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean wall time of fn() in microseconds over at least `min_calls` calls
// and at least `min_s` seconds.
double MeanMicros(const std::function<void()>& fn, int min_calls = 20,
                  double min_s = 0.05) {
  fn();  // warm-up
  int calls = 0;
  const double t0 = NowS();
  double t = t0;
  while (calls < min_calls || t - t0 < min_s) {
    fn();
    ++calls;
    t = NowS();
  }
  return (t - t0) * 1e6 / calls;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double nominal_qps = 0.0;
  std::vector<double> ladder;
  int rung_requests = 1000;
  int nominal_requests = 1000;
  // The ladder stops after the first rung that misses the SLO: p99 above
  // slo_ms, more than max_failed of requests failed, or a growing queue.
  double slo_ms = 10.0;
  double max_failed = 0.001;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--nominal-qps") {
      o->nominal_qps = std::atof(v.c_str());
    } else if (k == "--slo-ms") {
      o->slo_ms = std::atof(v.c_str());
    } else if (k == "--max-failed") {
      o->max_failed = std::atof(v.c_str());
    } else if (k == "--nominal-requests") {
      o->nominal_requests = std::atoi(v.c_str());
    } else if (k == "--rung-requests") {
      o->rung_requests = std::atoi(v.c_str());
    } else if (k == "--ladder") {
      size_t pos = 0;
      while (pos < v.size()) {
        size_t end = v.find(',', pos);
        if (end == std::string::npos) end = v.size();
        o->ladder.push_back(std::atof(v.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

// Everything one run measured, serialized by Write().
struct Report {
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  struct Round {
    double wall_s;
    double units;
  };
  struct Phase {
    std::string name;
    double rate = 0.0;
    double duration_s = 0.0;
    int64_t sent = 0, succeeded = 0, shed = 0, abandoned = 0, degraded = 0;
    int64_t backlog = 0;
    // Per sent request, timed from its due time; failed requests are
    // recorded as null (they miss every latency limit).
    std::vector<double> latency_ms;
    std::vector<double> queue_ms, service_ms, gen_lag_ms;
  };

  std::string workload;
  uint64_t seed = 0;
  int lanes = 1;
  std::vector<double> setup_s;
  std::vector<double> make_dataset_s;
  std::vector<Check> checks;
  std::string round_unit;
  std::vector<Round> rounds;
  std::vector<Phase> phases;
  std::map<std::string, double> layers;
  std::map<std::string, double> info;
  std::vector<std::pair<std::string, double>> top_ops;

  void Require(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }

  std::string Write() const {
    obs::JsonWriter w;
    auto numbers = [&w](const std::vector<double>& v) {
      w.BeginArray();
      for (double x : v) w.Number(x);
      w.EndArray();
    };
    w.BeginObject();
    w.Key("workload").String(workload);
    w.Key("seed").Int(static_cast<int64_t>(seed));
    w.Key("lanes").Int(lanes);
    w.Key("setup_s");
    numbers(setup_s);
    w.Key("make_dataset_s");
    numbers(make_dataset_s);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    w.Key("peak_rss_kb").Int(static_cast<int64_t>(ru.ru_maxrss));
    w.Key("checks").BeginArray();
    for (const Check& c : checks) {
      w.BeginObject();
      w.Key("name").String(c.name);
      w.Key("ok").Bool(c.ok);
      w.Key("detail").String(c.detail);
      w.EndObject();
    }
    w.EndArray();
    w.Key("round_unit").String(round_unit);
    w.Key("rounds").BeginArray();
    for (const Round& r : rounds) {
      w.BeginObject();
      w.Key("wall_s").Number(r.wall_s);
      w.Key("units").Number(r.units);
      w.EndObject();
    }
    w.EndArray();
    w.Key("phases").BeginArray();
    for (const Phase& p : phases) {
      w.BeginObject();
      w.Key("name").String(p.name);
      w.Key("rate").Number(p.rate);
      w.Key("duration_s").Number(p.duration_s);
      w.Key("sent").Int(p.sent);
      w.Key("succeeded").Int(p.succeeded);
      w.Key("shed").Int(p.shed);
      w.Key("abandoned").Int(p.abandoned);
      w.Key("degraded").Int(p.degraded);
      w.Key("backlog").Int(p.backlog);
      w.Key("latency_ms");
      numbers(p.latency_ms);
      w.Key("queue_ms");
      numbers(p.queue_ms);
      w.Key("service_ms");
      numbers(p.service_ms);
      w.Key("gen_lag_ms");
      numbers(p.gen_lag_ms);
      w.EndObject();
    }
    w.EndArray();
    w.Key("layers").BeginObject();
    for (const auto& [k, v] : layers) w.Key(k).Number(v);
    w.EndObject();
    w.Key("info").BeginObject();
    for (const auto& [k, v] : info) w.Key(k).Number(v);
    w.EndObject();
    w.Key("top_ops").BeginObject();
    for (const auto& [k, v] : top_ops) w.Key(k).Number(v);
    w.EndObject();
    w.EndObject();
    return w.str();
  }
};

// ---------------------------------------------------------------------------
// Set-up shared by every workload.

ProcessedDataset MakeWorkloadDataset(uint64_t seed, double scale,
                                     Report* report) {
  GeneratorConfig gc = JdAppliancesConfig(scale);
  gc.seed = DeriveSeed(seed, 0xDA7A);
  const double t0 = NowS();
  Result<ProcessedDataset> data = MakeDataset(gc);
  report->make_dataset_s.push_back(NowS() - t0);
  if (!data.ok()) {
    std::fprintf(stderr, "MakeDataset: %s\n", data.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(data).value();
}

TrainConfig ZooConfig(uint64_t seed) {
  TrainConfig tc;
  tc.embedding_dim = kDim;
  tc.seed = DeriveSeed(seed, 0x5EED);
  return tc;
}

std::unique_ptr<Recommender> MakeModel(const std::string& name,
                                       const ProcessedDataset& data,
                                       const TrainConfig& tc) {
  std::unique_ptr<Recommender> m =
      CreateModel(name, data.num_items, data.num_operations, tc);
  if (m == nullptr) {
    std::fprintf(stderr, "CreateModel(%s) failed\n", name.c_str());
    std::exit(2);
  }
  return m;
}

NeuralSessionModel* AsNeural(Recommender* m) {
  auto* n = dynamic_cast<NeuralSessionModel*>(m);
  if (n == nullptr) std::exit(2);
  return n;
}

// The five models, seeded and untrained, in eval mode.
std::vector<std::unique_ptr<Recommender>> MakeZoo(const ProcessedDataset& d,
                                                  uint64_t seed) {
  std::vector<std::unique_ptr<Recommender>> zoo;
  for (const std::string& name : kZoo) {
    zoo.push_back(MakeModel(name, d, ZooConfig(seed)));
    zoo.back()->EnsureEvalMode();
  }
  return zoo;
}

std::vector<const Example*> Prefix(const std::vector<Example>& v, size_t n) {
  std::vector<const Example*> out;
  for (size_t i = 0; i < std::min(n, v.size()); ++i) out.push_back(&v[i]);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer timings of public calls, shared by every traced workload. All
// run on the workload's own dataset at one lane (the par metrics compare
// two lanes with one explicitly) and leave the pool at one lane.

void TraceModelLayer(const ProcessedDataset& d, uint64_t seed,
                     Report* report) {
  auto zoo = MakeZoo(d, seed);
  const std::vector<const Example*> sample = Prefix(d.test, 128);
  for (size_t mi = 0; mi < kZoo.size(); ++mi) {
    Recommender* m = zoo[mi].get();
    const std::string& name = kZoo[mi];
    size_t next = 0;
    report->layers["models.score_all_us." + name] = MeanMicros([&] {
      (void)m->ScoreAll(*sample[next++ % sample.size()]);
    });
    NeuralSessionModel* neural = AsNeural(m);
    for (size_t b : {1, 16, 128}) {
      const double t0 = NowS();
      for (size_t i = 0; i < sample.size(); i += b) {
        const std::vector<const Example*> chunk(
            sample.begin() + static_cast<ptrdiff_t>(i),
            sample.begin() +
                static_cast<ptrdiff_t>(std::min(i + b, sample.size())));
        (void)neural->ScoreBatch(chunk);
      }
      report->layers["models.score_batch_us_per_session." + name + ".b" +
                     std::to_string(b)] =
          (NowS() - t0) * 1e6 / static_cast<double>(sample.size());
    }
  }

  const int64_t max_positions = TrainConfig().max_positions;
  for (size_t b : {16, 128}) {
    const std::vector<const Example*> chunk = Prefix(d.test, b);
    report->layers["models.collate_us.b" + std::to_string(b)] =
        MeanMicros([&] { (void)CollateSessions(chunk, max_positions); });
  }

  size_t g = 0;
  report->layers["graph.multigraph_build_us"] = MeanMicros([&] {
    (void)SessionMultigraph::Build(d.test[g++ % d.test.size()].macro_items);
  });
  report->layers["graph.srgnn_adjacency_us"] = MeanMicros([&] {
    (void)BuildSrgnnAdjacency(d.test[g++ % d.test.size()].macro_items);
  });

  // The decode GEMM every model ends with: [B, d] x [d, V].
  Rng rng(DeriveSeed(seed, 0xDEC0));
  const Tensor table = Tensor::Randn({kDim, d.num_items}, 0.1f, &rng);
  for (int64_t b : {1, 16, 128}) {
    const Tensor h = Tensor::Randn({b, kDim}, 0.1f, &rng);
    const std::string key = ".b" + std::to_string(b);
    report->layers["tensor.decode_matmul_us" + key] =
        MeanMicros([&] { (void)MatMul(h, table); });
    const double v = static_cast<double>(d.num_items);
    report->info["tensor.decode_matmul_flop" + key] =
        2.0 * static_cast<double>(b) * kDim * v;
    report->info["tensor.decode_matmul_bytes" + key] =
        4.0 * (static_cast<double>(b) * kDim + kDim * v +
               static_cast<double>(b) * v);
  }

  // Pool fork/join cost with an empty body, one chunk per lane, at two
  // lanes.
  par::SetThreadCount(2);
  report->layers["par.for_overhead_us"] = MeanMicros(
      [&] { par::For(0, 2, 1, [](int64_t, int64_t) {}); }, 200);
  par::SetThreadCount(1);

  std::vector<float> scores = zoo.back()->ScoreAll(d.test[0]);
  report->layers["metrics.topk_us"] =
      MeanMicros([&] { (void)TopKIndices(scores, 20); }, 200);
  report->layers["metrics.rank_of_target_us"] = MeanMicros(
      [&] { (void)RankOfTarget(scores, d.test[0].target); }, 200);

  // Evaluate at two lanes over one at the same sessions (EMBSR, the model
  // with the most per-session work).
  const std::vector<Example> slice(
      d.test.begin(),
      d.test.begin() + static_cast<ptrdiff_t>(std::min<size_t>(
                           kEvalSlice, d.test.size())));
  double wall[2] = {0.0, 0.0};
  for (int lanes : {2, 1}) {
    par::SetThreadCount(lanes);
    (void)Evaluate(zoo.back().get(), slice, {20}, 32);
    const double t0 = NowS();
    (void)Evaluate(zoo.back().get(), slice, {20});
    wall[lanes - 1] = NowS() - t0;
  }
  report->layers["par.eval_speedup"] = wall[0] / wall[1];
}

// Replays Fit's per-example loop from outside through public calls
// (LossOn, Variable::Backward, ClipGradNorm, Adam::Step) on the first
// mini-batch, per model. Returns per-model {loss_forward_ms per example,
// backward_ms per example, step_ms per step}.
std::map<std::string, std::array<double, 3>> TraceTrainLayer(
    const ProcessedDataset& d, uint64_t seed, Report* report) {
  std::map<std::string, std::array<double, 3>> out;
  const TrainConfig defaults;
  const std::vector<const Example*> batch =
      Prefix(d.train, static_cast<size_t>(defaults.batch_size));
  const float inv_batch = 1.0f / static_cast<float>(defaults.batch_size);
  int64_t acquires = 0;
  int64_t steps = 0;
  for (const std::string& name : kZoo) {
    TrainConfig tc = ZooConfig(seed);
    auto model = MakeModel(name, d, tc);
    NeuralSessionModel* neural = AsNeural(model.get());
    neural->SetTraining(true);
    optim::Adam opt(neural->Parameters(), tc.lr, 0.9f, 0.999f, 1e-8f,
                    tc.weight_decay);
    double fwd = 0.0, bwd = 0.0, step = 0.0;
    constexpr int kSteps = 2;
    for (int s = 0; s < kSteps; ++s) {
      const int64_t a0 = tensor_pool::HeapAcquires();
      opt.ZeroGrad();
      for (const Example* ex : batch) {
        const double t0 = NowS();
        ag::Variable loss = neural->LossOn(*ex);
        const double t1 = NowS();
        ag::Scale(loss, inv_batch).Backward();
        const double t2 = NowS();
        fwd += t1 - t0;
        bwd += t2 - t1;
      }
      const double t0 = NowS();
      (void)optim::ClipGradNorm(neural->Parameters(), tc.clip_norm);
      opt.Step();
      step += NowS() - t0;
      acquires += tensor_pool::HeapAcquires() - a0;
      ++steps;
    }
    const double n = static_cast<double>(batch.size()) * kSteps;
    out[name] = {fwd * 1e3 / n, bwd * 1e3 / n, step * 1e3 / kSteps};
    report->layers["models.loss_forward_ms." + name] = out[name][0];
    report->layers["autograd.backward_ms." + name] = out[name][1];
    report->layers["optim.step_ms." + name] = out[name][2];
  }
  report->layers["tensor.pool_heap_acquires_per_step"] =
      static_cast<double>(acquires) / static_cast<double>(steps);
  return out;
}

// Per-op and per-component attribution of one pass of `fn` under the
// profiler; returns the pass's wall seconds.
double ProfiledPass(const std::function<void()>& fn, Report* report) {
  prof::Start();
  const double t0 = NowS();
  fn();
  const double wall = NowS() - t0;
  prof::Stop();
  const prof::ProfileSnapshot snap = prof::Snapshot();
  for (const prof::OpAgg& c : snap.components) {
    report->layers["prof.component." + (c.name == "(none)" ? std::string("none") : c.name) + ".ms"] =
        static_cast<double>(c.forward_ns + c.backward_ns) / 1e6;
  }
  for (size_t i = 0; i < std::min<size_t>(8, snap.ops.size()); ++i) {
    const prof::OpAgg& op = snap.ops[i];
    report->top_ops.push_back(
        {op.name, static_cast<double>(op.forward_ns + op.backward_ns) / 1e6});
  }
  return wall;
}

// ---------------------------------------------------------------------------
// train-zoo: Fit of the five models (validation off, one epoch, one lane),
// repeated in identical rounds, then one Evaluate for MRR@20.

void RunTrainZoo(const Options& opt, Report* report) {
  report->lanes = 1;
  par::SetThreadCount(1);
  ProcessedDataset d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowS();
    d = MakeWorkloadDataset(opt.seed, 1.0, report);
    (void)MakeZoo(d, opt.seed);
    report->setup_s.push_back(NowS() - t0);
  }
  TrainConfig tc = ZooConfig(opt.seed);
  tc.epochs = 1;
  tc.validate_every = 0;
  tc.max_train_examples = kTrainExamples;
  obs::Gauge* loss_gauge = obs::Registry::Global().GetGauge("train/loss");

  std::vector<std::unique_ptr<Recommender>> trained;
  auto round = [&](bool keep) {
    double wall = 0.0;
    for (const std::string& name : kZoo) {
      auto model = MakeModel(name, d, tc);
      const double t0 = NowS();
      const Status s = model->Fit(d);
      wall += NowS() - t0;
      const double loss = loss_gauge->value();
      report->Require("fit." + name, s.ok(), s.ToString());
      report->Require("finite_loss." + name, std::isfinite(loss) && loss > 0,
                      "mean epoch loss " + std::to_string(loss));
      if (keep) trained.push_back(std::move(model));
    }
    return wall;
  };
  report->round_unit = "training examples";
  const double units = static_cast<double>(kZoo.size()) *
                       std::min<double>(kTrainExamples, d.train.size());
  const double start = NowS();
  do {
    report->rounds.push_back({round(report->rounds.empty()), units});
  } while (NowS() - start < opt.seconds);

  double mrr_sum = 0.0;
  for (size_t i = 0; i < kZoo.size(); ++i) {
    const EvalResult r = Evaluate(trained[i].get(), d.test, {20});
    report->info["train.mrr20." + kZoo[i]] = r.report.mrr.at(20);
    mrr_sum += r.report.mrr.at(20);
  }
  const double mrr = mrr_sum / static_cast<double>(kZoo.size());
  report->info["train.mrr20"] = mrr;
  report->info["test_sessions"] = static_cast<double>(d.test.size());

  if (!opt.trace) return;
  const double untraced = MedianOf([&] {
    std::vector<double> w;
    for (const auto& r : report->rounds) w.push_back(r.wall_s);
    return w;
  }());
  const double traced = ProfiledPass([&] { (void)round(false); }, report);
  report->layers["trace.overhead_ratio"] = traced / untraced;
  const auto parts = TraceTrainLayer(d, opt.seed, report);
  // Attribute the untraced round to the replayed public calls: per example
  // a LossOn and a Backward, per mini-batch one clip + Adam step.
  const double per_model = std::min<double>(kTrainExamples, d.train.size());
  const double steps = std::ceil(per_model / TrainConfig().batch_size);
  double attributed_ms = 0.0;
  for (const auto& [name, p] : parts) {
    attributed_ms += per_model * (p[0] + p[1]) + steps * p[2];
  }
  report->layers["unattributed_ms"] = untraced * 1e3 - attributed_ms;
  report->layers["unattributed_share"] =
      1.0 - attributed_ms / (untraced * 1e3);
  TraceModelLayer(d, opt.seed, report);
}

// ---------------------------------------------------------------------------
// eval-zoo: Evaluate of the five untrained models over rotating slices of
// a several-thousand-session test split, at two lanes.

void RunEvalZoo(const Options& opt, Report* report) {
  const int lanes = std::max(
      1, std::min(2, static_cast<int>(std::thread::hardware_concurrency())));
  report->lanes = lanes;
  par::SetThreadCount(lanes);
  ProcessedDataset d;
  std::vector<std::unique_ptr<Recommender>> zoo;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowS();
    d = MakeWorkloadDataset(opt.seed, 2.0, report);
    zoo = MakeZoo(d, opt.seed);
    report->setup_s.push_back(NowS() - t0);
  }
  report->info["test_sessions"] = static_cast<double>(d.test.size());

  // ScoreBatch at b16 / b128 must rank exactly as ScoreAll does.
  const std::vector<const Example*> sample = Prefix(d.test, 256);
  for (size_t mi = 0; mi < zoo.size(); ++mi) {
    std::vector<int> ranks;
    for (const Example* ex : sample) {
      ranks.push_back(RankOfTarget(zoo[mi]->ScoreAll(*ex), ex->target));
    }
    for (size_t b : {16, 128}) {
      size_t mismatches = 0;
      for (size_t i = 0; i < sample.size(); i += b) {
        const std::vector<const Example*> chunk(
            sample.begin() + static_cast<ptrdiff_t>(i),
            sample.begin() +
                static_cast<ptrdiff_t>(std::min(i + b, sample.size())));
        const auto scores = AsNeural(zoo[mi].get())->ScoreBatch(chunk);
        for (size_t j = 0; j < chunk.size(); ++j) {
          if (RankOfTarget(scores[j], chunk[j]->target) != ranks[i + j]) {
            ++mismatches;
          }
        }
      }
      report->Require("score_batch_ranks." + kZoo[mi] + ".b" +
                          std::to_string(b),
                      mismatches == 0,
                      std::to_string(mismatches) + " of " +
                          std::to_string(sample.size()) + " ranks differ");
    }
  }

  const size_t num_slices = std::max<size_t>(1, d.test.size() / kEvalSlice);
  std::vector<std::vector<Example>> slices;
  for (size_t s = 0; s < num_slices; ++s) {
    const size_t lo = s * kEvalSlice;
    const size_t hi = std::min(lo + kEvalSlice, d.test.size());
    slices.emplace_back(d.test.begin() + static_cast<ptrdiff_t>(lo),
                        d.test.begin() + static_cast<ptrdiff_t>(hi));
  }
  double mrr_sum = 0.0;
  auto round = [&](size_t s) {
    double wall = 0.0;
    double sessions = 0.0;
    for (auto& m : zoo) {
      const double t0 = NowS();
      const EvalResult r = Evaluate(m.get(), slices[s], {20});
      wall += NowS() - t0;
      sessions += static_cast<double>(r.ranks.size());
      mrr_sum += r.report.mrr.at(20);
    }
    return Report::Round{wall, sessions};
  };
  (void)round(num_slices - 1);  // warm-up: page in tables, start lanes
  report->round_unit = "sessions";
  const double start = NowS();
  size_t s = 0;
  mrr_sum = 0.0;
  do {
    report->rounds.push_back(round(s));
    s = (s + 1) % num_slices;
  } while (NowS() - start < opt.seconds);
  report->info["eval.mrr20_untrained"] =
      mrr_sum / static_cast<double>(report->rounds.size() * zoo.size());

  if (!opt.trace) return;
  std::vector<double> walls;
  for (const auto& r : report->rounds) walls.push_back(r.wall_s);
  const double untraced = MedianOf(walls);
  const double traced = ProfiledPass([&] { (void)round(0); }, report);
  report->layers["trace.overhead_ratio"] = traced / untraced;
  TraceModelLayer(d, opt.seed, report);
  // Attribute a one-lane round to per-session ScoreAll + RankOfTarget.
  const double one_lane = round(0).wall_s;
  double attributed_us = 0.0;
  for (const std::string& name : kZoo) {
    attributed_us += static_cast<double>(slices[0].size()) *
                     (report->layers["models.score_all_us." + name] +
                      report->layers["metrics.rank_of_target_us"]);
  }
  report->layers["unattributed_ms"] = one_lane * 1e3 - attributed_us / 1e3;
  report->layers["unattributed_share"] =
      1.0 - attributed_us / 1e6 / one_lane;
  (void)TraceTrainLayer(d, opt.seed, report);
}

// ---------------------------------------------------------------------------
// serve-*: an open loop from one thread through ServeFrontend.

struct ServeSpec {
  std::string primary;
  // Zipf exponent of user popularity, one user per replayed test session;
  // 0 = uniform over `users` users.
  double zipf_alpha = 0.0;
  size_t users = 0;
  serve::SessionStoreConfig store;
};

struct Arrival {
  double due_s;
  uint64_t session;
  MicroBehavior event;
};

// The replayed traffic: micro-behavior streams rebuilt from the test split
// and a popularity law over users. Each arrival is the next event of the
// chosen user's current session; when it runs out the user starts a fresh
// session (a new session id) on another test stream. Sessions stay as long
// as the test sessions they replay, and even the hottest users walk through
// many of them, so the traffic is stationary and its mix of session lengths
// does not hinge on which few streams the seed made popular.
class Traffic {
 public:
  Traffic(const ProcessedDataset& d, const ServeSpec& spec, uint64_t seed)
      : rng_(DeriveSeed(seed, 0x7EAF)) {
    for (const Example& ex : d.test) {
      std::vector<MicroBehavior> s;
      for (size_t i = 0; i < ex.flat_items.size(); ++i) {
        s.push_back(MicroBehavior{ex.flat_items[i], ex.flat_ops[i]});
      }
      if (!s.empty()) streams_.push_back(std::move(s));
    }
    const size_t users = spec.zipf_alpha > 0 ? streams_.size() : spec.users;
    std::vector<double> w = spec.zipf_alpha > 0
                                ? ZipfWeights(users, spec.zipf_alpha)
                                : std::vector<double>(users, 1.0);
    double acc = 0.0;
    for (double x : w) cdf_.push_back(acc += x);
    users_.assign(users, User{});
  }

  // A Poisson schedule of `n` arrivals at `rate` per second.
  std::vector<Arrival> Schedule(double rate, size_t n) {
    constexpr size_t kStride = 7919;  // prime: sessions visit every stream
    std::vector<Arrival> out;
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng_.Uniform()) / rate;
      const double r = rng_.Uniform() * cdf_.back();
      const size_t id = std::min<size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), r) - cdf_.begin(),
          users_.size() - 1);
      User& u = users_[id];
      const auto& stream =
          streams_[(id + u.sessions * kStride) % streams_.size()];
      out.push_back({t, id + users_.size() * u.sessions, stream[u.pos]});
      if (++u.pos == stream.size()) {
        u.pos = 0;
        ++u.sessions;
      }
    }
    return out;
  }

 private:
  struct User {
    size_t sessions = 0;  // completed sessions
    size_t pos = 0;       // next event of the current one
  };
  Rng rng_;
  std::vector<std::vector<MicroBehavior>> streams_;
  std::vector<double> cdf_;
  std::vector<User> users_;
};

// One processed request, kept for the mirror-store replay.
struct Served {
  uint64_t session;
  MicroBehavior event;
  bool applied;    // the frontend's store saw the event
  bool verify;     // full-price answer sampled for re-derivation
  std::vector<int64_t> top_items;
};

Report::Phase RunPhase(serve::ServeFrontend* fe, const std::string& name,
                       double rate, const std::vector<Arrival>& arrivals,
                       uint64_t* next_id, std::vector<Served>* log) {
  Report::Phase p;
  p.name = name;
  p.rate = rate;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::map<uint64_t, size_t> pending;  // request id -> arrival index
  p.latency_ms.assign(arrivals.size(), nan);
  const double t0 = NowS() + 1e-3;
  size_t next = 0;
  auto handle = [&](serve::ServeResponse&& r) {
    const double done = NowS();
    const size_t i = pending.at(r.request_id);
    pending.erase(r.request_id);
    const Arrival& a = arrivals[i];
    const bool ok = r.status.ok();
    const bool applied =
        ok || r.status.message().find("before scoring") != std::string::npos;
    if (!ok) {
      ++p.abandoned;
    } else if (r.degraded) {
      ++p.degraded;
    } else {
      ++p.succeeded;
      p.latency_ms[i] = (done - (t0 + a.due_s)) * 1e3;
      p.queue_ms.push_back(r.queue_ms);
      p.service_ms.push_back(r.latency_ms - r.queue_ms);
    }
    const bool verify = ok && !r.degraded && log->size() % kVerifyEvery == 0;
    log->push_back({a.session, a.event, applied, verify,
                    verify ? std::move(r.top_items) : std::vector<int64_t>{}});
  };
  while (next < arrivals.size() || fe->queue_depth() > 0) {
    const double now = NowS();
    while (next < arrivals.size() && t0 + arrivals[next].due_s <= now) {
      const Arrival& a = arrivals[next];
      p.gen_lag_ms.push_back((now - (t0 + a.due_s)) * 1e3);
      serve::Request req;
      req.request_id = (*next_id)++;
      req.session_id = a.session;
      req.event = a.event;
      ++p.sent;
      if (fe->Submit(req).ok()) {
        pending[req.request_id] = next;
      } else {
        ++p.shed;
      }
      if (++next == arrivals.size()) {
        p.backlog = static_cast<int64_t>(fe->queue_depth());
      }
    }
    if (fe->queue_depth() > 0) {
      Result<serve::ServeResponse> r = fe->ProcessNext();
      if (r.ok()) handle(std::move(r).value());
    }
    // Idle: spin to the next due time (a sleep overshoots by milliseconds
    // and would show up as generator lag).
  }
  p.duration_s = NowS() - t0;
  return p;
}

// A sweep's ladder stops after a rung that is clearly past the SLO: p99
// above twice the limit, more than the allowed share of requests failed,
// or a growing queue. run.py pools each rate's rungs over all sweeps and
// applies the SLO itself (perfbench/stats.py), so one host stall during
// one rung neither ends the ladder nor decides the capacity.
bool ClearlyPastSlo(const Report::Phase& p, const Options& opt) {
  const auto n = static_cast<double>(p.sent);
  std::vector<double> lat;
  for (double x : p.latency_ms) {
    lat.push_back(std::isnan(x) ? std::numeric_limits<double>::infinity()
                                : x);
  }
  std::sort(lat.begin(), lat.end());
  const size_t rank = static_cast<size_t>(std::ceil(0.99 * n));
  const double failed = n - static_cast<double>(p.succeeded);
  return lat[rank - 1] > 2.0 * opt.slo_ms || failed > opt.max_failed * n ||
         static_cast<double>(p.backlog) > std::max(5.0, 0.05 * n);
}

void RunServe(const Options& opt, const ServeSpec& spec, Report* report) {
  report->lanes = 1;
  par::SetThreadCount(1);
  ProcessedDataset d;
  std::unique_ptr<Recommender> primary;
  serve::PopularityScorer fallback;
  serve::ServeConfig cfg;
  cfg.store = spec.store;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowS();
    d = MakeWorkloadDataset(opt.seed, 1.0, report);
    primary = MakeModel(spec.primary, d, ZooConfig(opt.seed));
    primary->EnsureEvalMode();
    fallback = serve::PopularityScorer();
    if (!fallback.Fit(d).ok()) std::exit(2);
    // Warm-up: a throwaway frontend answers a few requests so tables are
    // paged in before timing.
    serve::ServeFrontend warm(cfg, primary.get(), &fallback);
    for (uint64_t r = 0; r < 32; ++r) {
      serve::Request req;
      req.request_id = r + 1;
      req.session_id = r;
      req.event = MicroBehavior{d.test[r % d.test.size()].flat_items[0],
                                d.test[r % d.test.size()].flat_ops[0]};
      (void)warm.Submit(req);
      (void)warm.ProcessNext();
    }
    report->setup_s.push_back(NowS() - t0);
  }

  // Sweeps of [nominal phase, rate ladder], at least kSweeps of them and
  // more while --seconds has not elapsed.
  Traffic traffic(d, spec, opt.seed);
  serve::ServeFrontend fe(cfg, primary.get(), &fallback);
  uint64_t next_id = 1;
  std::vector<Served> log;
  std::vector<Arrival> first_nominal;
  const double start = NowS();
  for (int sweep = 0; sweep < kSweeps || NowS() - start < opt.seconds;
       ++sweep) {
    const std::string tag = "#" + std::to_string(sweep);
    std::vector<Arrival> nominal =
        traffic.Schedule(opt.nominal_qps, opt.nominal_requests);
    report->phases.push_back(RunPhase(&fe, "nominal" + tag, opt.nominal_qps,
                                      nominal, &next_id, &log));
    if (sweep == 0) first_nominal = std::move(nominal);
    for (double rate : opt.ladder) {
      char name[48];
      std::snprintf(name, sizeof(name), "ladder%s@%g", tag.c_str(), rate);
      report->phases.push_back(RunPhase(
          &fe, name, rate,
          traffic.Schedule(rate, static_cast<size_t>(opt.rung_requests)),
          &next_id, &log));
      if (ClearlyPastSlo(report->phases.back(), opt)) break;
    }
  }

  // Mirror store fed the same accepted events; sampled full-price answers
  // must equal TopK(ScoreAll(ToExample())) of the mirror's state.
  serve::SessionStore mirror(cfg.store);
  size_t verified = 0, mismatched = 0;
  for (const Served& s : log) {
    if (!s.applied) continue;
    Result<const serve::SessionState*> st = mirror.ApplyEvent(s.session,
                                                              s.event);
    if (!st.ok() || !s.verify) continue;
    const Example ex = st.value()->ToExample();
    ++verified;
    if (TopKIndices(primary->ScoreAll(ex), cfg.top_k) != s.top_items) {
      ++mismatched;
    }
  }
  report->Require("served_topk_equals_offline", verified > 0 && mismatched == 0,
                  std::to_string(mismatched) + " of " +
                      std::to_string(verified) + " sampled answers differ");
  for (const Report::Phase& p : report->phases) {
    report->Require("accounting." + p.name,
                    p.sent == p.succeeded + p.shed + p.abandoned + p.degraded,
                    "sent " + std::to_string(p.sent));
  }

  if (!opt.trace) return;
  // Traced re-run of the nominal phase under the profiler, on the same
  // arrivals as the untraced run.
  serve::ServeFrontend traced_fe(cfg, primary.get(), &fallback);
  std::vector<Served> traced_log;
  Report::Phase traced;
  ProfiledPass(
      [&] {
        traced = RunPhase(&traced_fe, "nominal-traced", opt.nominal_qps,
                          first_nominal, &next_id, &traced_log);
      },
      report);
  const Report::Phase& nominal = report->phases[0];
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double service_mean = mean(nominal.service_ms);
  report->layers["trace.overhead_ratio"] =
      mean(traced.service_ms) / service_mean;
  report->layers["serve.service_ms.p50"] = MedianOf(nominal.service_ms);

  // Store, ToExample, scorer and top-K timed on the nominal phase's own
  // accepted events, replayed into a fresh store.
  serve::SessionStore store(cfg.store);
  double apply_s = 0.0, to_example_s = 0.0, score_s = 0.0, topk_s = 0.0;
  double fallback_s = 0.0;
  int64_t n = 0, trims = 0;
  for (const Arrival& a : first_nominal) {
    const serve::SessionState* before = nullptr;
    if (auto g = store.Get(a.session); g.ok()) before = g.value();
    const size_t len_before = before ? before->flat_items.size() : 0;
    const double t0 = NowS();
    Result<const serve::SessionState*> st = store.ApplyEvent(a.session,
                                                             a.event);
    const double t1 = NowS();
    const Example ex = st.value()->ToExample();
    const double t2 = NowS();
    if (st.value()->flat_items.size() <= len_before) ++trims;
    const std::vector<float> scores = primary->ScoreAll(ex);
    const double t3 = NowS();
    (void)TopKIndices(scores, cfg.top_k);
    const double t4 = NowS();
    (void)fallback.ScoreAll(ex);
    fallback_s += NowS() - t4;
    apply_s += t1 - t0;
    to_example_s += t2 - t1;
    score_s += t3 - t2;
    topk_s += t4 - t3;
    ++n;
  }
  const double per = 1e6 / static_cast<double>(n);
  report->layers["serve.store.apply_event_us"] = apply_s * per;
  report->layers["serve.store.to_example_us"] = to_example_s * per;
  report->layers["serve.store.evictions_per_req"] =
      static_cast<double>(store.evictions()) / static_cast<double>(n);
  report->layers["serve.store.trims_per_req"] =
      static_cast<double>(trims) / static_cast<double>(n);
  report->layers["serve.fallback_score_us"] = fallback_s * per;
  report->layers["serve.score_us"] = score_s * per;
  const double parts_us = (apply_s + to_example_s + score_s + topk_s) * per;
  // Mean service time of the untraced nominal phase against the replayed
  // parts: what is left is the frontend's own work (queue, deadline and
  // breaker bookkeeping, response assembly).
  report->layers["serve.frontend_overhead_us"] =
      service_mean * 1e3 - parts_us;
  report->layers["unattributed_ms"] = (service_mean * 1e3 - parts_us) / 1e3;
  report->layers["unattributed_share"] =
      1.0 - parts_us / (service_mean * 1e3);
  std::vector<double> queue = nominal.queue_ms;
  std::sort(queue.begin(), queue.end());
  std::vector<double> lag = nominal.gen_lag_ms;
  std::sort(lag.begin(), lag.end());
  auto p99 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : v[std::min(v.size() - 1,
                                  static_cast<size_t>(
                                      std::ceil(0.99 * v.size())) - 1)];
  };
  report->layers["serve.queue_wait_ms.p99"] = p99(queue);
  report->layers["serve.gen_lag_ms.p99"] = p99(lag);
  TraceModelLayer(d, opt.seed, report);
  (void)TraceTrainLayer(d, opt.seed, report);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload W --seed N --seconds S "
                 "--trace 0|1 [--nominal-qps Q --nominal-requests N "
                 "--ladder a,b,c --rung-requests N --slo-ms L "
                 "--max-failed F]\n");
    return 2;
  }
  Report report;
  report.workload = opt.workload;
  report.seed = opt.seed;
  if (opt.workload == "train-zoo") {
    RunTrainZoo(opt, &report);
  } else if (opt.workload == "eval-zoo") {
    RunEvalZoo(opt, &report);
  } else if (opt.workload == "serve-embsr" || opt.workload == "serve-churn") {
    if (opt.nominal_qps <= 0.0 || opt.ladder.empty()) {
      std::fprintf(stderr, "serve workloads need --nominal-qps and --ladder\n");
      return 2;
    }
    ServeSpec spec;
    if (opt.workload == "serve-embsr") {
      spec.primary = "EMBSR";
      spec.zipf_alpha = 1.0;
    } else {
      // Far more live sessions than the store holds, and a per-session cap
      // short enough that returning sessions get trimmed.
      spec.primary = "STAMP";
      spec.store.max_sessions = 1024;
      spec.store.max_events_per_session = 4;
      spec.users = 2 * spec.store.max_sessions;
    }
    RunServe(opt, spec, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.Write().c_str());
  return 0;
}
