#include "optim/optimizer.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace embsr {
namespace optim {

namespace {

/// Checks a slot list against the live buffers before any mutation so a
/// failed import leaves the optimizer untouched.
Status CheckSlots(const std::vector<Tensor>& slots, size_t offset,
                  const std::vector<Tensor>& expected, const char* what) {
  for (size_t i = 0; i < expected.size(); ++i) {
    if (slots[offset + i].shape() != expected[i].shape()) {
      return Status::FailedPrecondition(
          std::string("optimizer slot shape mismatch in ") + what +
          " at index " + std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace

Adam::Adam(std::vector<ag::Variable> params, float lr, float beta1,
           float beta2, float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::Zeros(p.value().shape()));
    v_.push_back(Tensor::Zeros(p.value().shape()));
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    float* pw = p.mutable_value().data();
    const float* pg = g.data();
    const int64_t n = g.size();
    for (int64_t k = 0; k < n; ++k) {
      float gk = pg[k];
      if (weight_decay_ != 0.0f) gk += weight_decay_ * pw[k];
      pm[k] = beta1_ * pm[k] + (1.0f - beta1_) * gk;
      pv[k] = beta2_ * pv[k] + (1.0f - beta2_) * gk * gk;
      const float mhat = pm[k] / bc1;
      const float vhat = pv[k] / bc2;
      pw[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::ExportState(std::vector<double>* scalars,
                       std::vector<Tensor>* slots) const {
  scalars->assign({static_cast<double>(t_)});
  slots->clear();
  slots->reserve(m_.size() + v_.size());
  for (const auto& t : m_) slots->push_back(t);
  for (const auto& t : v_) slots->push_back(t);
}

Status Adam::ImportState(const std::vector<double>& scalars,
                         const std::vector<Tensor>& slots) {
  if (scalars.size() != 1 || slots.size() != m_.size() + v_.size()) {
    return Status::FailedPrecondition("Adam state layout mismatch");
  }
  Status s = CheckSlots(slots, 0, m_, "Adam first moment");
  if (!s.ok()) return s;
  s = CheckSlots(slots, m_.size(), v_, "Adam second moment");
  if (!s.ok()) return s;
  t_ = static_cast<int64_t>(scalars[0]);
  for (size_t i = 0; i < m_.size(); ++i) m_[i] = slots[i];
  for (size_t i = 0; i < v_.size(); ++i) v_[i] = slots[m_.size() + i];
  return Status::OK();
}

float GlobalGradNorm(const std::vector<ag::Variable>& params) {
  double total = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const float n = p.grad().L2Norm();
    total += static_cast<double>(n) * n;
  }
  return static_cast<float>(std::sqrt(total));
}

float ClipGradNorm(const std::vector<ag::Variable>& params, float max_norm) {
  EMBSR_CHECK_GT(max_norm, 0.0f);
  const float norm = GlobalGradNorm(params);
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    // Scaling is not an accumulation: accum_count keeps its count.
    for (const auto& p : params) {
      if (p.has_grad()) p.node()->grad.ScaleInPlace(scale);
    }
  }
  return norm;
}

float StepDecaySchedule::LrForEpoch(int epoch) const {
  EMBSR_CHECK_GE(epoch, 0);
  EMBSR_CHECK_GT(step_size_, 0);
  return base_lr_ * std::pow(gamma_, static_cast<float>(epoch / step_size_));
}

}  // namespace optim
}  // namespace embsr
