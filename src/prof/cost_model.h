#ifndef EMBSR_PROF_COST_MODEL_H_
#define EMBSR_PROF_COST_MODEL_H_

#include <cstdint>
#include <vector>

namespace embsr {
namespace prof {

/// Analytic cost of one forward evaluation of an autograd op. The contract
/// (DESIGN.md §13): flops counts arithmetic operations (a fused
/// multiply-add is 2), bytes assume every operand is streamed from / to
/// memory exactly once at 4 bytes per float — a *traffic lower bound*, not
/// a cache model. Transcendentals (exp, tanh, ...) are charged a flat
/// 4 flops per element.
struct OpCost {
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
};

/// Shapes visible at node-record time. prof sits *below* tensor in the
/// layer DAG, so cost functions receive plain dimension vectors, never
/// Tensor objects.
struct ShapeInfo {
  std::vector<std::vector<int64_t>> inputs;
  std::vector<int64_t> output;
};

/// Number of elements in a shape ([] is a scalar: 1 element).
int64_t NumElems(const std::vector<int64_t>& shape);

/// Each op's cost function lives in its ag::OpDef entry (autograd/op_def.h).
using CostFn = OpCost (*)(const ShapeInfo&);

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_COST_MODEL_H_
