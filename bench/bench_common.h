#ifndef EMBSR_BENCH_BENCH_COMMON_H_
#define EMBSR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "prof/op_profiler.h"
#include "train/experiment.h"
#include "util/check.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/timer.h"

namespace embsr {
namespace bench {

/// Session-count multiplier for bench datasets. The repo default (scale 1)
/// generates ~2000 usable sessions per dataset — enough for the tables'
/// *shape* on one CPU core; raise EMBSR_BENCH_SCALE toward the paper's
/// half-million-session scale if you have the hardware.
inline double DatasetScale() { return 0.5 * BenchScale(); }

/// Builds one of the three paper datasets at bench scale.
/// `which` is "appliances", "computers" or "trivago".
inline ProcessedDataset LoadDataset(const std::string& which) {
  GeneratorConfig cfg;
  if (which == "appliances") {
    cfg = JdAppliancesConfig(DatasetScale());
  } else if (which == "computers") {
    cfg = JdComputersConfig(DatasetScale());
  } else if (which == "trivago") {
    cfg = TrivagoConfig(DatasetScale());
  } else {
    EMBSR_CHECK_MSG(false, "unknown dataset '%s'", which.c_str());
  }
  auto result = MakeDataset(cfg);
  EMBSR_CHECK_OK(result);
  return std::move(result).value();
}

/// Single-operation-restricted variant (supplement protocol).
inline ProcessedDataset LoadDatasetSingleOp(const std::string& which) {
  GeneratorConfig cfg = which == "trivago" ? TrivagoConfig(DatasetScale())
                        : which == "computers"
                            ? JdComputersConfig(DatasetScale())
                            : JdAppliancesConfig(DatasetScale());
  const int64_t op = cfg.num_operations >= 10
                         ? static_cast<int64_t>(kJdClick)
                         : static_cast<int64_t>(kTrvClickout);
  auto result = MakeDatasetSingleOp(cfg, op);
  EMBSR_CHECK_OK(result);
  return std::move(result).value();
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* note) {
  std::printf("=====================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  if (note != nullptr && note[0] != '\0') std::printf("Note: %s\n", note);
  std::printf("Workload scale: EMBSR_BENCH_SCALE=%.2f "
              "(sessions x%.2f of repo default)\n",
              BenchScale(), BenchScale());
  std::printf("=====================================================\n\n");
}

/// Machine-readable sidecar of a bench run. Collects experiment results and
/// named scalars while the bench prints its human table, then writes
/// `BENCH_<name>.json` (schema v4: workload scale, pool thread count, wall
/// time, results with per-cell status ok|failed, scalars, metrics snapshot)
/// on destruction. Write() first stops the active profiling session, if any
/// (EMBSR_PROF=1 opens one at process start), which publishes its per-op,
/// per-component, memory and lane totals into the snapshot as `prof/...`
/// gauges. Failed sweep cells are recorded with their error instead of
/// aborting the report — graceful degradation. The destination directory is
/// the working directory, overridable with EMBSR_BENCH_JSON_DIR; the file
/// is what scripts/check_bench_json.py validates.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  ~BenchReport() { Write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void AddResult(const ExperimentResult& r) { results_.push_back(r); }

  void AddResults(const std::vector<ExperimentResult>& rs) {
    for (const auto& r : rs) results_.push_back(r);
  }

  void AddScalar(const std::string& key, double value) {
    scalars_.emplace_back(key, value);
  }

  std::string path() const {
    return GetEnvString("EMBSR_BENCH_JSON_DIR", ".") + "/BENCH_" + name_ +
           ".json";
  }

  void Write() {
    if (written_) return;
    written_ = true;
    prof::Stop();
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(4);
    w.Key("bench").String(name_);
    w.Key("threads").Int(par::ThreadCount());
    w.Key("workload").BeginObject();
    w.Key("bench_scale").Number(BenchScale());
    w.Key("dataset_scale").Number(DatasetScale());
    w.EndObject();
    w.Key("wall_seconds").Number(timer_.ElapsedSeconds());
    w.Key("results").BeginArray();
    for (const auto& r : results_) {
      w.BeginObject();
      w.Key("model").String(r.model);
      w.Key("dataset").String(r.dataset);
      w.Key("status").String(r.ok ? "ok" : "failed");
      if (!r.ok) w.Key("error").String(r.error);
      w.Key("fit_seconds").Number(r.fit_seconds);
      w.Key("eval_seconds").Number(r.eval_seconds);
      w.Key("hit").BeginObject();
      for (const auto& [k, v] : r.eval.report.hit) {
        w.Key(std::to_string(k)).Number(v);
      }
      w.EndObject();
      w.Key("mrr").BeginObject();
      for (const auto& [k, v] : r.eval.report.mrr) {
        w.Key(std::to_string(k)).Number(v);
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Key("scalars").BeginObject();
    for (const auto& [k, v] : scalars_) w.Key(k).Number(v);
    w.EndObject();
    w.Key("metrics").Raw(obs::Registry::Global().SnapshotJson());
    w.EndObject();

    const std::string out = path();
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      EMBSR_LOG(Warning) << "cannot write bench report '" << out << "'";
      return;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    EMBSR_LOG(Info) << "wrote " << out;
  }

 private:
  std::string name_;
  WallTimer timer_;
  std::vector<ExperimentResult> results_;
  std::vector<std::pair<std::string, double>> scalars_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace embsr

#endif  // EMBSR_BENCH_BENCH_COMMON_H_
