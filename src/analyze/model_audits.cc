#include "analyze/model_audits.h"

#include <memory>
#include <sstream>

#include "analyze/graph_dump.h"
#include "obs/trace.h"
#include "prof/op_profiler.h"
#include "train/model_zoo.h"
#include "util/env.h"
#include "util/fs_util.h"
#include "util/logging.h"

namespace embsr {
namespace analyze {

/// Upper bound on measured peak / recorded_bytes; rationale in DESIGN.md
/// §12 and EXPERIMENTS.md "Recorded-vs-measured peak memory".
constexpr double kMeasuredPeakTolerance = 1.5;

TapeAuditReport AuditModel(NeuralSessionModel* model) {
  EMBSR_TRACE_SPAN("analyze/model_audit");
  // Eval mode: the audited graph is the deterministic inference wiring
  // (dropout contributes no nodes), matching the gradcheck harness.
  model->SetTraining(false);
  model->ZeroGrad();

  const Example ex = TinyZooExample();
  // Bracket exactly the forward+backward in a fresh prof session so the
  // measured peak is the graph's transient footprint. Start() is a reset,
  // so an already-active session (EMBSR_PROF=1 runs) is restarted rather
  // than corrupted; it is left running, with cleared stats, afterwards.
  const bool outer_session = prof::Enabled();
  prof::Start();
  const int64_t live0 = prof::MemSnapshot().live_bytes;
  ag::Tape tape;
  ag::Variable loss = model->LossOn(ex);
  loss.Backward();
  const int64_t measured = prof::MemSnapshot().peak_bytes - live0;
  if (!outer_session) prof::Stop();

  TapeAuditReport report = AuditTape(loss, model->NamedParameters(), tape);
  const int64_t recorded = report.stats.recorded_bytes;
  if (measured < recorded ||
      static_cast<double>(measured) >
          static_cast<double>(recorded) * kMeasuredPeakTolerance) {
    std::ostringstream msg;
    msg << "measured peak " << measured << " B is outside [recorded "
        << recorded << " B, " << kMeasuredPeakTolerance << "x recorded]";
    report.failures.push_back(msg.str());
  }
  ExportTapeStats(report.stats);

  const std::string dump_dir = GetEnvString("EMBSR_GRAPH_DUMP_DIR", "");
  if (!dump_dir.empty()) {
    const std::vector<nn::NamedParameter> params = model->NamedParameters();
    const std::string stem = dump_dir + "/graph_" + model->name();
    const Status dot = AtomicWriteFile(stem + ".dot", ToDot(loss, params));
    const Status json = AtomicWriteFile(stem + ".json", ToJson(loss, params));
    if (!dot.ok() || !json.ok()) {
      EMBSR_LOG(Warning) << "graph dump for " << model->name()
                         << " failed: " << (dot.ok() ? json : dot).ToString();
    }
  }
  return report;
}

ModelAuditOutcome RunModelAudit(const std::string& name) {
  ModelAuditOutcome outcome;
  std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
  if (model == nullptr) return outcome;
  outcome.known = true;
  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  if (neural == nullptr) return outcome;  // memory-based: no graph to audit
  outcome.neural = true;
  outcome.report = AuditModel(neural);
  return outcome;
}

}  // namespace analyze
}  // namespace embsr
