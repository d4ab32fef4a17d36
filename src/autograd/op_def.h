#ifndef EMBSR_AUTOGRAD_OP_DEF_H_
#define EMBSR_AUTOGRAD_OP_DEF_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "prof/cost_model.h"
#include "util/rng.h"

namespace embsr {
namespace ag {

/// One value per op in ops.h that builds a graph node. Neg, Row and
/// MeanRowsTo1xD lower to other ops, so they have no value here.
enum class OpId {
  kAdd,
  kMul,
  kAddRowBroadcast,
  kMulRowBroadcast,
  kMulColBroadcast,
  kScale,
  kAddScalar,
  kMatMul,
  kScoreItems,
  kTranspose,
  kSigmoid,
  kTanh,
  kRelu,
  kConcatCols,
  kConcatRows,
  kStackRows,
  kSliceRows,
  kGatherRows,
  kSelectRowsByMask,
  kSegmentSumRows,
  kRowSoftmaxMasked,
  kSumAll,
  kSumRowsTo1xD,
  kRepeatRow,
  kL2NormalizeRowsOp,
  kLayerNormRows,
  kDropout,
  kSoftmaxCrossEntropy,
  kCount,  // number of ops, not an op
};

/// A finite-difference gradient check of one op (src/verify runs it). The
/// runner seeds an Rng with kGradCheckSeed, draws the leaves with `inputs`,
/// then draws a weight tensor w shaped like the op's output from the same
/// Rng, and checks d/d(leaves) of SumAll(Mul(apply(leaves), w)).
struct GradCheckDef {
  std::vector<Tensor> (*inputs)(Rng* rng);
  /// Applies the op with its fixed attributes (indices, masks, bounds). Must
  /// be a pure function of the leaf values: it is re-run per perturbation.
  Variable (*apply)(const std::vector<Variable>& leaves);
};

/// Everything the repo knows about one op apart from its forward and
/// backward, which stay in the op function (their closures capture per-call
/// attributes). A node points at its op's entry, so the tape auditor, the
/// profiler and the gradcheck runner all read the same record.
struct OpDef {
  OpId id;
  /// The ops.h function name; also the profiler's and tape auditor's key.
  const char* name;
  /// Checks a recorded node's output shape against its parents' shapes:
  /// "" when consistent, else a diagnostic. Where an attribute never
  /// reaches the node (slice bounds, gather indices, repeat counts) the
  /// rule checks every bound the attribute cannot break. Precondition: the
  /// node recorded its parents (some input required grad, and no
  /// NoGradScope was open).
  std::string (*shape_rule)(const Node& node);
  /// Analytic forward cost on the node's shapes (DESIGN.md §13).
  prof::CostFn cost;
  GradCheckDef gradcheck;
};

/// Seed of the gradcheck Rng (leaf values, w, and Dropout's mask stream).
inline constexpr uint64_t kGradCheckSeed = 0xC0FFEEULL;

/// The op table, indexed by OpId. Defined in ops.cc, where a static_assert
/// requires one complete entry per OpId, in enum order.
std::span<const OpDef> OpTable();

/// The producing op's name, or "leaf" for parameters and constants.
inline const char* OpName(const Node& node) {
  return node.def != nullptr ? node.def->name : "leaf";
}

}  // namespace ag
}  // namespace embsr

#endif  // EMBSR_AUTOGRAD_OP_DEF_H_
