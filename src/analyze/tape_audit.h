#ifndef EMBSR_ANALYZE_TAPE_AUDIT_H_
#define EMBSR_ANALYZE_TAPE_AUDIT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "autograd/variable.h"
#include "nn/module.h"

namespace embsr {
namespace analyze {

/// Structural audit of one recorded forward/backward pass.
///
/// The gradcheck harness (src/verify) answers "are the gradients
/// numerically right?"; this auditor answers the question upstream of it:
/// "is the graph wired the way the model intends?" A model whose operation
/// embedding never reaches the loss still trains, still scores, and
/// silently becomes a weaker baseline — the classic miswired-baseline
/// failure the session-rec replication literature keeps finding. Dead
/// parameters, dropped op outputs and double-accumulating backwards are
/// all invisible to finite differences of the parameters that *do* work.
///
/// Invariants checked (run AuditTape after exactly one Backward() on a
/// freshly built graph whose nodes were recorded by an ag::Tape):
///
///   1. *No dead parameters.* Every registered parameter is an ancestor of
///      the loss and received a gradient. There are no exceptions: a model
///      registers only the components its config wires into the forward
///      (EmbsrModel's ablation switches included).
///   2. *Accumulation matches fan-out.* For every reachable requires_grad
///      node, the number of AccumulateGrad calls it received equals its
///      consumer-edge count (with multiplicity) plus one at the backward
///      root for the seed. Catches backwards that accumulate twice, skip a
///      parent, or leak gradient into detached subgraphs.
///   3. *No orphaned ops.* Every requires_grad node recorded on the tape is
///      reachable from the loss. An unreachable op means a computed output
///      was dropped on the floor — usually a refactor losing a term.
///   4. *No aliased parameters.* No two registered parameter names share a
///      graph node or a value buffer; aliasing would double-count
///      gradients and corrupt optimizer state.
///   5. *Parameters are leaves.* A parameter produced by an op would be
///      re-created every forward pass and never actually train.
///   6. *Shapes re-derive.* Every op node with recorded parents, on the tape
///      or reachable from the loss, passes its OpDef::shape_rule. Ops over
///      non-differentiable inputs record no parents, so their rule cannot
///      run.
///   7. *Every trainable leaf is registered.* Each requires_grad leaf the
///      loss reaches is one of `params`. A weight outside the parameter
///      list gets gradients that no optimizer applies and no checkpoint
///      saves; with invariant 1, the parameter list is exactly the set of
///      weights the loss trains.
///
/// The audit also totals the graph's recorded bytes, which AuditModel
/// compares with the memory profiler's measured peak.

struct TapeAuditStats {
  int64_t tape_nodes = 0;       // everything recorded, incl. constants
  int64_t reachable_nodes = 0;  // ancestors of the loss (loss included)
  int64_t edges = 0;            // parent links among reachable nodes
  int64_t parameters = 0;       // registered named parameters
  int64_t parameter_scalars = 0;
  int64_t shapes_checked = 0;   // op nodes whose shape rule ran
  /// What a heap execution of the graph, which frees nothing until the
  /// graph dies, holds at its high-water mark: the value of every tape
  /// node, plus one gradient buffer for every node that accumulated one
  /// (pre-tape parameters included).
  int64_t recorded_bytes = 0;
  std::map<std::string, int64_t> op_histogram;  // reachable nodes per op
};

struct TapeAuditReport {
  bool ok() const { return failures.empty(); }
  std::vector<std::string> failures;
  TapeAuditStats stats;

  /// Human-readable multi-line summary (stats + every failure).
  std::string ToString() const;
};

/// All ancestors of `root` (root itself included), in deterministic
/// discovery order. Shared by the auditor and the graph dumpers.
std::vector<ag::Node*> ReachableNodes(const ag::Variable& root);

/// Audits the graph under `loss` against `params` and the recorded `tape`.
/// Precondition: exactly one Backward() ran since the parameters were
/// zeroed (the fan-out counts assume a single seed).
TapeAuditReport AuditTape(const ag::Variable& loss,
                          const std::vector<nn::NamedParameter>& params,
                          const ag::Tape& tape);

}  // namespace analyze
}  // namespace embsr

#endif  // EMBSR_ANALYZE_TAPE_AUDIT_H_
