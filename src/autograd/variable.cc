#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "autograd/op_def.h"
#include "autograd/tape.h"
#include "obs/trace.h"
#include "prof/op_profiler.h"
#include "util/check.h"
#include "util/timer.h"

namespace embsr {
namespace ag {

namespace {

thread_local int t_no_grad_depth = 0;

std::vector<Node*> BackwardPostOrder(const Variable& root) {
  // Iterative post-order DFS over requires_grad parents: a reverse
  // topological order. Backward() executes it back-to-front so each node's
  // grad is complete before it propagates.
  std::vector<Node*> order;
  if (!root.defined()) return order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [cur, next_child] = stack.back();
    if (next_child < cur->parents.size()) {
      Node* child = cur->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(cur);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace

void Node::AccumulateGrad(Tensor&& g) {
  EMBSR_CHECK(g.shape() == value.shape());
  if (!grad_ready) {
    grad = std::move(g);
    grad_ready = true;
  } else {
    grad.AddInPlace(g);
  }
  ++accum_count;
}

void Node::AccumulateGrad(const Tensor& g) {
  EMBSR_CHECK(g.shape() == value.shape());
  if (!grad_ready) {
    grad = g;
    grad_ready = true;
  } else {
    grad.AddInPlace(g);
  }
  ++accum_count;
}

void Node::AccumulateGradTransposedA(const Tensor& a, const Tensor& b,
                                     bool transpose) {
  // The first accumulation stores into the buffer ZeroGrad kept, or into a
  // new one on a node's first backward.
  if (!grad_ready && grad.shape() != value.shape()) grad = Tensor(value.shape());
  MatMulTransposedAInto(a, b, /*store=*/!grad_ready, transpose, &grad);
  grad_ready = true;
  ++accum_count;
}

const Tensor& Node::ValueTransposed() {
  if (transposed == nullptr) {
    transposed = std::make_unique<const Tensor>(value.Transposed());
  }
  return *transposed;
}

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  Tape::Record(node_);
}

const Tensor& Variable::value() const {
  EMBSR_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  EMBSR_CHECK(defined());
  ++node_->version;
  node_->transposed.reset();
  return node_->value;
}

uint64_t Variable::version() const {
  EMBSR_CHECK(defined());
  return node_->version;
}

Tensor Variable::GradOrZeros() const {
  EMBSR_CHECK(defined());
  if (!node_->grad_ready) return Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

const Tensor& Variable::grad() const {
  EMBSR_CHECK(has_grad());
  return node_->grad;
}

bool Variable::requires_grad() const {
  EMBSR_CHECK(defined());
  return node_->requires_grad;
}

bool Variable::has_grad() const {
  EMBSR_CHECK(defined());
  return node_->grad_ready;
}

void Variable::ZeroGrad() {
  EMBSR_CHECK(defined());
  node_->grad_ready = false;
  node_->accum_count = 0;
}

void Variable::Backward() const {
  EMBSR_TIMED_SPAN("autograd/backward", "autograd/backward_ms");
  static obs::Counter* backward_calls =
      obs::Registry::Global().GetCounter("autograd/backward_calls");
  backward_calls->Increment();

  EMBSR_CHECK(defined());
  EMBSR_CHECK_MSG(!NoGradScope::Active(),
                  "Backward() inside an active ag::NoGradScope: ops built "
                  "under it record no graph, so nothing would be trained");
  EMBSR_CHECK_MSG(node_->value.size() == 1,
                  "Backward() requires a scalar root, got %s",
                  node_->value.ShapeString().c_str());

  const std::vector<Node*> order = BackwardPostOrder(*this);

  node_->AccumulateGrad(Tensor::Full(node_->value.shape(), 1.0f));

  // `order` is post-order (children first); iterate from the back so each
  // node's grad is complete before it propagates to parents.
  prof::Collector* pc = prof::Collector::ActiveOrNull();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn && n->grad_ready) {
      if (pc != nullptr) {
        const int64_t t0 = NowNs();
        n->backward_fn(n);
        pc->RecordBackward(n->def->name, n->component, NowNs() - t0);
      } else {
        n->backward_fn(n);
      }
    }
  }
  // Re-origin the forward gap so graph-walk time between this backward pass
  // and the next recorded op is never charged to that op.
  if (pc != nullptr) prof::Collector::MarkThisThread();
}

Variable Variable::FromNode(std::shared_ptr<Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

Variable Constant(Tensor value) { return Variable(std::move(value), false); }

NoGradScope::NoGradScope() { ++t_no_grad_depth; }

NoGradScope::~NoGradScope() { --t_no_grad_depth; }

bool NoGradScope::Active() { return t_no_grad_depth > 0; }

}  // namespace ag
}  // namespace embsr
