#ifndef EMBSR_OPTIM_OPTIMIZER_H_
#define EMBSR_OPTIM_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"
#include "util/status.h"

namespace embsr {
namespace optim {

/// Adam (Kingma & Ba 2015) with bias correction over a fixed parameter
/// list; the paper's optimizer.
class Adam {
 public:
  Adam(std::vector<ag::Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the parameters' accumulated gradients.
  /// Parameters with no accumulated gradient are skipped.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Serializes the step count and moment buffers into an opaque scalar
  /// list + tensor list, the shape the checkpoint format stores
  /// (nn::TrainState).
  void ExportState(std::vector<double>* scalars,
                   std::vector<Tensor>* slots) const;

  /// Restores state produced by ExportState over the same parameter list.
  /// FailedPrecondition on count/shape mismatch; the optimizer is left
  /// untouched on error.
  Status ImportState(const std::vector<double>& scalars,
                     const std::vector<Tensor>& slots);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  std::vector<ag::Variable> params_;
  float lr_;
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// L2 norm of all accumulated gradients taken together (parameters with no
/// gradient contribute zero).
float GlobalGradNorm(const std::vector<ag::Variable>& params);

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<ag::Variable>& params, float max_norm);

/// Multiplicative learning-rate decay: lr = base * gamma^(epoch / step_size).
/// Matches the schedule in the paper's MKM-SR-derived training setup.
class StepDecaySchedule {
 public:
  StepDecaySchedule(float base_lr, int step_size, float gamma)
      : base_lr_(base_lr), step_size_(step_size), gamma_(gamma) {}

  float LrForEpoch(int epoch) const;

 private:
  float base_lr_;
  int step_size_;
  float gamma_;
};

}  // namespace optim
}  // namespace embsr

#endif  // EMBSR_OPTIM_OPTIMIZER_H_
