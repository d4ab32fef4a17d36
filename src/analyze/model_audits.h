#ifndef EMBSR_ANALYZE_MODEL_AUDITS_H_
#define EMBSR_ANALYZE_MODEL_AUDITS_H_

#include <string>

#include "analyze/tape_audit.h"
#include "models/neural_model.h"

namespace embsr {
namespace analyze {

struct ModelAuditOutcome {
  bool known = false;   // CreateModel recognized the name
  bool neural = false;  // gradient-trained; memory-based baselines have no
                        // graph and audit trivially
  TapeAuditReport report;
};

/// Records one eval-mode forward/backward of LossOn on TinyZooExample()
/// (train/model_zoo.h) under an ag::Tape, inside a fresh prof session
/// (restarting any active one). It audits the graph with AuditTape, fails
/// the report unless recorded_bytes <= measured peak <= 1.5 x
/// recorded_bytes, and exports stats through embsr::obs. When
/// EMBSR_GRAPH_DUMP_DIR is set, also writes graph_<model>.dot and
/// graph_<model>.json there. `model` must be built on the tiny zoo
/// vocabulary.
TapeAuditReport AuditModel(NeuralSessionModel* model);

/// Builds the zoo model `name` on the tiny zoo fixture and audits it.
ModelAuditOutcome RunModelAudit(const std::string& name);

}  // namespace analyze
}  // namespace embsr

#endif  // EMBSR_ANALYZE_MODEL_AUDITS_H_
