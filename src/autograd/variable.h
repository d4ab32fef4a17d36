#ifndef EMBSR_AUTOGRAD_VARIABLE_H_
#define EMBSR_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace embsr {
namespace ag {

struct OpDef;

/// Internal graph node for reverse-mode autodiff. Do not use directly;
/// interact through Variable and the ops in ops.h.
struct Node {
  Tensor value;
  /// Gradient of the (scalar) loss w.r.t. `value`. Allocated lazily on the
  /// first accumulation; `grad_ready` says whether it holds real data.
  Tensor grad;
  bool grad_ready = false;
  bool requires_grad = false;
  /// Parents in the computation graph (inputs of the op that produced
  /// this). Empty for leaves and for nodes that do not require grad.
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates this node's grad into its parents' grads. Null for leaves
  /// and for nodes that do not require grad.
  std::function<void(Node*)> backward_fn;
  /// Table entry (op_def.h) of the op that produced this node; null for
  /// Variables built directly (parameters, constants).
  const OpDef* def = nullptr;
  /// Model-component label (prof::ComponentScope) active when the node was
  /// recorded; set only while profiling, so backward time lands in the same
  /// component bucket as forward time. Null or a string literal.
  const char* component = nullptr;
  /// Gradient accumulations received since construction / the last
  /// ZeroGrad. The tape auditor (src/analyze) checks this against graph
  /// fan-out: after one backward pass it must equal the number of consumer
  /// edges that propagated a gradient here (+1 at the backward root for
  /// the seed).
  int64_t accum_count = 0;
  /// Write count of `value` through Variable::mutable_value(), the one call
  /// every parameter write goes through (optimizer step, snapshot restore,
  /// checkpoint load, gradcheck perturbation). A cache derived from `value`
  /// (nn::Embedding's decode table) is fresh while this is unchanged.
  uint64_t version = 0;
  /// `value` transposed, kept for a leaf (def == nullptr) that is the right
  /// operand of a graph-on MatMul or ScoreItems (ops.cc): their backward
  /// passes, and ScoreItems' forward, multiply by it instead of re-packing
  /// `value` on every call. Null until ValueTransposed() builds it, so a
  /// node that never uses it allocates nothing more. Every
  /// Variable::mutable_value() drops it as it bumps `version`, so a built
  /// transpose is always of the current version. Only graph-on ops read it,
  /// and a model records its graph and runs its backward on one thread, so
  /// it takes no lock; scoring under a NoGradScope never touches it.
  std::unique_ptr<const Tensor> transposed;

  /// Adds `g` into this node's grad buffer. The first accumulation since
  /// ZeroGrad moves an rvalue in and copies a borrowed tensor.
  void AccumulateGrad(Tensor&& g);
  void AccumulateGrad(const Tensor& g);
  /// Accumulates aᵀ·b (its transpose when `transpose`) into the grad, with
  /// the bits and accum_count of AccumulateGrad(MatMul(a.Transposed(), b))
  /// but without building the product (tensor.h, MatMulTransposedAInto).
  void AccumulateGradTransposedA(const Tensor& a, const Tensor& b,
                                 bool transpose);
  /// `transposed`, built from `value` if it is null.
  const Tensor& ValueTransposed();
};

/// A value in a define-by-run computation graph.
///
/// Variable is a cheap shared handle: copying it aliases the same node. A
/// fresh graph is built on every forward pass; Backward() walks it once in
/// reverse topological order. Gradients *accumulate* across Backward calls
/// until ZeroGrad, which is what lets the trainer do batch-size-1 forward
/// passes with gradient accumulation over a mini-batch.
class Variable {
 public:
  /// An empty handle; most operations on it are invalid.
  Variable() = default;

  /// Wraps a tensor as a leaf. Parameters pass requires_grad=true.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  /// Write access to the value; bumps version() and drops the node's cached
  /// transpose, so take it only to write.
  Tensor& mutable_value();
  /// The node's write count (Node::version).
  uint64_t version() const;
  /// The accumulated gradient; zeros if none has been accumulated yet.
  Tensor GradOrZeros() const;
  /// The accumulated gradient, read in place; requires has_grad().
  const Tensor& grad() const;
  bool requires_grad() const;
  bool has_grad() const;

  /// Clears the accumulated gradient (keeps the buffer).
  void ZeroGrad();

  /// Runs backpropagation from this variable, which must be a scalar.
  /// Seeds d(self)/d(self) = 1 and accumulates into every reachable leaf
  /// with requires_grad set. Aborts inside an active NoGradScope.
  void Backward() const;

  /// Shape helpers forwarded to the value tensor.
  int64_t rows() const { return value().rows(); }
  int64_t cols() const { return value().cols(); }

  const std::shared_ptr<Node>& node() const { return node_; }

  /// Internal: constructs from an existing node (used by ops.cc).
  static Variable FromNode(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

/// Makes a non-differentiable constant variable.
Variable Constant(Tensor value);

/// Inference mode for the current thread. While any scope is open, every op
/// builds a node with requires_grad false and records no parents and no
/// backward closure, whatever its inputs, so each intermediate is freed as
/// soon as its last Variable handle goes. Forward values are unchanged.
/// Scopes nest (a depth count) and are thread-local, like a Tape; an
/// evaluator thread opens its own. Backward() inside a scope is an error.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();

  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while a NoGradScope is open on this thread.
  static bool Active();
};

}  // namespace ag
}  // namespace embsr

#endif  // EMBSR_AUTOGRAD_VARIABLE_H_
