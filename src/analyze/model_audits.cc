#include "analyze/model_audits.h"

#include <memory>
#include <sstream>

#include "analyze/graph_dump.h"
#include "models/neural_model.h"
#include "obs/trace.h"
#include "prof/op_profiler.h"
#include "train/model_zoo.h"
#include "util/env.h"
#include "util/fs_util.h"
#include "util/logging.h"

namespace embsr {
namespace analyze {

namespace {

/// Tiny fixed session for the audit forward pass — same shape as the
/// gradcheck harness's tiny example (micro-behavior session of 3 macro
/// items with parallel operations), chosen so every model path (GNN on the
/// item graph, op encoding, attention over positions) has real work to do.
Example AuditExample() {
  Example ex;
  ex.macro_items = {3, 7, 5};
  ex.macro_ops = {{1}, {0, 2}, {1, 3}};
  ex.flat_items = {3, 7, 7, 5, 5};
  ex.flat_ops = {1, 0, 2, 1, 3};
  ex.target = 9;
  return ex;
}

constexpr int64_t kAuditVocabItems = 12;
constexpr int64_t kAuditVocabOperations = 4;

/// Upper bound on measured peak / recorded_bytes; rationale in DESIGN.md
/// §12 and EXPERIMENTS.md "Recorded-vs-measured peak memory".
constexpr double kMeasuredPeakTolerance = 1.5;

/// EmbsrModel registers every component unconditionally (stable checkpoint
/// layout and parameter count across the ablation grid — see
/// core/embsr_model.cc); a variant's disabled components are therefore
/// *expected* dead parameters, listed per audit below. The allowances are
/// exact: a listed parameter that does receive gradient fails the audit as
/// a stale allowance, so they cannot mask a real regression.

/// All ten parameters of one nn::Gru cell registered under `prefix`.
void AllowGruCell(const std::string& prefix, TapeAuditOptions* o) {
  for (const char* p : {"w_ir", "w_iz", "w_in", "w_hr", "w_hz", "w_hn",
                        "b_r", "b_z", "b_in", "b_hn"}) {
    o->allowed_dead_params.push_back(prefix + "." + std::string(p));
  }
}

/// The flat-sequence GRU backbone and its fusion head are only wired when
/// cfg.rnn_backbone is set (RNN-Self); every other EMBSR-family audit
/// allows them dead.
TapeAuditOptions* AllowRnnBackbone(TapeAuditOptions* o) {
  AllowGruCell("rnn_backbone_gru.cell", o);
  o->allowed_dead_params.push_back("rnn_fuse.weight");
  o->allowed_dead_params.push_back("rnn_fuse.bias");
  return o;
}

/// op_importance only contributes when cfg.weight_operations (EMBSR-W).
TapeAuditOptions* AllowOpImportance(TapeAuditOptions* o) {
  o->allowed_dead_params.push_back("op_importance");
  return o;
}

/// The star-multigraph GNN stage — GGNN update gates, the two message
/// attention pairs, message projections and the highway combine — is
/// bypassed entirely when !cfg.use_gnn (EMBSR-NG, RNN-Self).
TapeAuditOptions* AllowGnn(TapeAuditOptions* o) {
  for (const char* p : {"w_z", "u_z", "w_r", "u_r", "w_u", "u_u", "wq1",
                        "wk1", "wq2", "wk2", "msg_in.weight", "msg_in.bias",
                        "msg_out.weight", "msg_out.bias", "highway.weight"}) {
    o->allowed_dead_params.push_back(p);
  }
  return o;
}

/// The per-item micro-operation GRU feeds the GNN messages (Eq. 5–6); it
/// goes dead when those edges are disabled (!use_op_gru_edges) or the GNN
/// stage is bypassed altogether.
TapeAuditOptions* AllowMicroOpGru(TapeAuditOptions* o) {
  AllowGruCell("micro_gru.cell", o);
  return o;
}

/// The operation-aware self-attention block (query projection, position
/// table, FFN, both layer norms) — unused when !cfg.use_self_attention
/// (EMBSR-NS, where the global preference is the star input directly).
TapeAuditOptions* AllowSelfAttention(TapeAuditOptions* o) {
  for (const char* p : {"w_q_attn", "positions.table", "ffn.fc1.weight",
                        "ffn.fc1.bias", "ffn.fc2.weight", "ffn.fc2.bias",
                        "ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta"}) {
    o->allowed_dead_params.push_back(p);
  }
  return o;
}

/// Dyadic relation embeddings (Eq. 14/16) enter only the attention
/// keys/values; dead when !cfg.use_dyadic or the attention block itself is
/// off.
TapeAuditOptions* AllowDyadicRelations(TapeAuditOptions* o) {
  o->allowed_dead_params.push_back("relations.table");
  return o;
}

/// Absolute operation embeddings; dead when neither the attention inputs
/// (!use_op_in_attention) nor the op-GRU edges consume them (SGNN-Self).
TapeAuditOptions* AllowOpsTable(TapeAuditOptions* o) {
  o->allowed_dead_params.push_back("ops.table");
  return o;
}

std::vector<ModelAuditSpec> BuildAudits() {
  std::vector<ModelAuditSpec> audits;
  auto add = [&audits](const std::string& name) -> TapeAuditOptions* {
    audits.push_back({name, {}});
    return &audits.back().options;
  };

  // Memory-based baselines: no parameters, trivially clean.
  add("S-POP");
  add("SKNN");
  add("STAN");

  // Neural baselines: every parameter must reach the loss, no exceptions.
  add("NARM");
  add("STAMP");
  add("SR-GNN");
  add("GC-SAN");
  add("BERT4Rec");
  add("SGNN-HN");
  add("RIB");
  add("HUP");
  add("MKM-SR");
  add("GRU4Rec");
  add("FPMC");

  // EMBSR and its ablation grid. Each variant allows exactly the component
  // groups its EmbsrConfig switches off — nothing more (the stale-allowance
  // check turns an over-broad list into a failure).
  AllowRnnBackbone(AllowOpImportance(add("EMBSR")));
  AllowSelfAttention(AllowDyadicRelations(
      AllowRnnBackbone(AllowOpImportance(add("EMBSR-NS")))));
  AllowGnn(AllowMicroOpGru(
      AllowRnnBackbone(AllowOpImportance(add("EMBSR-NG")))));
  AllowRnnBackbone(AllowOpImportance(add("EMBSR-NF")));
  AllowRnnBackbone(add("EMBSR-W"));
  AllowOpsTable(AllowDyadicRelations(AllowMicroOpGru(AllowRnnBackbone(
      AllowOpImportance(add("SGNN-Self"))))));
  AllowDyadicRelations(AllowRnnBackbone(
      AllowOpImportance(add("SGNN-Seq-Self"))));
  AllowGnn(AllowMicroOpGru(AllowDyadicRelations(
      AllowOpImportance(add("RNN-Self")))));
  AllowDyadicRelations(AllowMicroOpGru(AllowRnnBackbone(
      AllowOpImportance(add("SGNN-Abs-Self")))));
  AllowMicroOpGru(AllowRnnBackbone(
      AllowOpImportance(add("SGNN-Dyadic"))));

  return audits;
}

}  // namespace

const std::vector<ModelAuditSpec>& ModelAudits() {
  static const auto* audits =  // lint: allow(raw-new): leaked singleton
      new std::vector<ModelAuditSpec>(BuildAudits());
  return *audits;
}

const ModelAuditSpec* FindModelAudit(const std::string& name) {
  for (const ModelAuditSpec& spec : ModelAudits()) {
    if (spec.model == name) return &spec;
  }
  return nullptr;
}

ModelAuditOutcome RunModelAudit(const ModelAuditSpec& spec) {
  EMBSR_TRACE_SPAN("analyze/model_audit");
  ModelAuditOutcome outcome;

  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_positions = 16;
  cfg.seed = 17;

  std::unique_ptr<Recommender> model =
      CreateModel(spec.model, kAuditVocabItems, kAuditVocabOperations, cfg);
  if (model == nullptr) return outcome;
  outcome.known = true;

  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  if (neural == nullptr) return outcome;  // memory-based: no graph to audit
  outcome.neural = true;

  // Eval mode: the audited graph is the deterministic inference wiring
  // (dropout contributes no nodes), matching the gradcheck harness.
  neural->SetTraining(false);
  neural->ZeroGrad();

  const Example ex = AuditExample();
  // Bracket exactly the forward+backward in a fresh prof session so the
  // measured peak is the graph's transient footprint. Start() is a reset,
  // so an already-active session (EMBSR_PROF=1 runs) is restarted rather
  // than corrupted; it is left running, with cleared stats, afterwards.
  const bool outer_session = prof::Enabled();
  prof::Start();
  const int64_t live0 = prof::MemSnapshot().live_bytes;
  ag::Tape tape;
  ag::Variable loss = neural->LossOn(ex);
  loss.Backward();
  const int64_t measured = prof::MemSnapshot().peak_bytes - live0;
  if (!outer_session) prof::Stop();

  outcome.report =
      AuditTape(loss, neural->NamedParameters(), tape, spec.options);
  const int64_t recorded = outcome.report.stats.recorded_bytes;
  if (measured < recorded ||
      static_cast<double>(measured) >
          static_cast<double>(recorded) * kMeasuredPeakTolerance) {
    std::ostringstream msg;
    msg << "measured peak " << measured << " B is outside [recorded "
        << recorded << " B, " << kMeasuredPeakTolerance << "x recorded]";
    outcome.report.failures.push_back(msg.str());
  }
  ExportTapeStats(outcome.report.stats);

  const std::string dump_dir = GetEnvString("EMBSR_GRAPH_DUMP_DIR", "");
  if (!dump_dir.empty()) {
    const std::vector<nn::NamedParameter> params = neural->NamedParameters();
    const Status dot = AtomicWriteFile(
        dump_dir + "/graph_" + spec.model + ".dot", ToDot(loss, params));
    const Status json = AtomicWriteFile(
        dump_dir + "/graph_" + spec.model + ".json", ToJson(loss, params));
    if (!dot.ok() || !json.ok()) {
      EMBSR_LOG(Warning) << "graph dump for " << spec.model
                         << " failed: " << (dot.ok() ? json : dot).ToString();
    }
  }
  return outcome;
}

}  // namespace analyze
}  // namespace embsr
