#include <memory>
#include <string>

#include "analyze/graph_plan.h"
#include "analyze/model_audits.h"
#include "models/neural_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/op_profiler.h"
#include "train/model_zoo.h"
#include "util/env.h"
#include "util/fs_util.h"
#include "util/logging.h"

namespace embsr {
namespace analyze {

namespace {

/// Same tiny fixed session and vocabulary as the model audits: every model
/// path (GNN, op encoding, attention) has real work to do, and the dumped
/// plan sits next to the audit's graph dump for the same graph.
Example PlanExample() {
  Example ex;
  ex.macro_items = {3, 7, 5};
  ex.macro_ops = {{1}, {0, 2}, {1, 3}};
  ex.flat_items = {3, 7, 7, 5, 5};
  ex.flat_ops = {1, 0, 2, 1, 3};
  ex.target = 9;
  return ex;
}

constexpr int64_t kPlanVocabItems = 12;
constexpr int64_t kPlanVocabOperations = 4;

}  // namespace

ModelPlanOutcome RunModelPlan(const std::string& model) {
  EMBSR_TRACE_SPAN("analyze/model_plan");
  ModelPlanOutcome outcome;

  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_positions = 16;
  cfg.seed = 17;

  std::unique_ptr<Recommender> rec =
      CreateModel(model, kPlanVocabItems, kPlanVocabOperations, cfg);
  if (rec == nullptr) return outcome;
  outcome.known = true;
  auto* neural = dynamic_cast<NeuralSessionModel*>(rec.get());
  if (neural == nullptr) return outcome;  // memory-based: nothing to plan
  outcome.neural = true;

  neural->SetTraining(false);
  neural->ZeroGrad();
  const Example ex = PlanExample();

  // A model variant's legitimately-unused op outputs (if it ever registers
  // any) are the same set its tape audit allows as orphans.
  PlanOptions options;
  if (const ModelAuditSpec* spec = FindModelAudit(model)) {
    options.allowed_dead_stores = spec->options.allowed_orphan_ops;
  }

  // Bracket exactly the forward+backward in a fresh prof session so the
  // measured peak is the graph's transient footprint. Start() is a reset,
  // so an already-active session (EMBSR_PROF=1 runs) is restarted rather
  // than corrupted; it is left running — with cleared stats — afterwards.
  const bool outer_session = prof::Enabled();
  prof::Start();
  const int64_t live0 = prof::MemSnapshot().live_bytes;
  {
    ag::Tape tape;
    ag::Variable loss = neural->LossOn(ex);
    loss.Backward();
    outcome.measured_peak_bytes = prof::MemSnapshot().peak_bytes - live0;
    outcome.plan = BuildGraphPlan(loss, neural->NamedParameters(), tape);
    outcome.verify = VerifyGraphPlan(outcome.plan, options);
  }
  if (!outer_session) prof::Stop();

  if (outcome.plan.planned_total_bytes > 0) {
    outcome.measured_over_planned =
        static_cast<double>(outcome.measured_peak_bytes) /
        static_cast<double>(outcome.plan.planned_total_bytes);
  }

  obs::Registry& reg = obs::Registry::Global();
  reg.GetGauge("analyze/plan_total_bytes")
      ->Set(static_cast<double>(outcome.plan.planned_total_bytes));
  reg.GetGauge("analyze/plan_peak_bytes")
      ->Set(static_cast<double>(outcome.plan.planned_peak_bytes));
  reg.GetCounter("analyze/plans_total")->Increment();

  const std::string dump_dir = GetEnvString("EMBSR_GRAPH_DUMP_DIR", "");
  if (!dump_dir.empty()) {
    const Status json = AtomicWriteFile(dump_dir + "/plan_" + model + ".json",
                                        PlanToJson(outcome.plan));
    const Status dot = AtomicWriteFile(dump_dir + "/plan_" + model + ".dot",
                                       PlanToDot(outcome.plan));
    if (!json.ok() || !dot.ok()) {
      EMBSR_LOG(Warning) << "plan dump for " << model << " failed: "
                         << (json.ok() ? dot : json).ToString();
    }
  }
  return outcome;
}

}  // namespace analyze
}  // namespace embsr
