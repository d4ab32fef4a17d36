#ifndef EMBSR_ANALYZE_MODEL_AUDITS_H_
#define EMBSR_ANALYZE_MODEL_AUDITS_H_

#include <string>
#include <vector>

#include "analyze/tape_audit.h"

namespace embsr {
namespace analyze {

/// One registered per-model audit: which zoo model to build, and which
/// structural exceptions its configuration makes legitimate.
struct ModelAuditSpec {
  std::string model;
  TapeAuditOptions options;
};

/// All registered per-model audits, one per zoo model name.
/// tests/graph_audit_test.cc compares them with ZooModelNames() both ways:
/// a zoo model without an audit, or an audit naming a model the zoo no
/// longer builds, fails it.
const std::vector<ModelAuditSpec>& ModelAudits();

/// The spec registered for `name`, or null.
const ModelAuditSpec* FindModelAudit(const std::string& name);

struct ModelAuditOutcome {
  bool known = false;   // CreateModel recognized the name
  bool neural = false;  // gradient-trained; memory-based baselines have no
                        // graph and audit trivially
  TapeAuditReport report;
};

/// Builds the model on the tiny audit vocabulary and records one eval-mode
/// forward/backward of LossOn on a fixed synthetic session under an
/// ag::Tape, inside a fresh prof session (restarting any active one). It
/// audits the graph against the spec, fails the report unless
/// recorded_bytes <= measured peak <= 1.5 x recorded_bytes, and exports
/// stats through embsr::obs. When EMBSR_GRAPH_DUMP_DIR is set, also writes
/// graph_<model>.dot and graph_<model>.json there.
ModelAuditOutcome RunModelAudit(const ModelAuditSpec& spec);

}  // namespace analyze
}  // namespace embsr

#endif  // EMBSR_ANALYZE_MODEL_AUDITS_H_
