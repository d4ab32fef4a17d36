#ifndef EMBSR_UTIL_RNG_H_
#define EMBSR_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace embsr {

/// Complete serializable generator state: the xoshiro words plus the
/// Box-Muller carry. Restoring it reproduces the stream bit-for-bit, which
/// is what makes checkpointed training exactly resumable.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). One instance per logical stream; never shared across threads.
/// All experiments in this repo are seeded, so runs are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Snapshots / restores the full generator state (see RngState).
  RngState SaveState() const;
  void RestoreState(const RngState& state);

  /// Uniform 64-bit word.
  uint64_t NextU64();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Weights must be non-negative and not all zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// In-place Fisher-Yates shuffle of indices.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Builds Zipf-distributed weights: weight[i] ~ 1 / (i+1)^alpha.
std::vector<double> ZipfWeights(size_t n, double alpha);

/// Derives an independent stream seed from (seed, salt) via splitmix64
/// mixing. Used to give each training epoch its own shuffle stream so the
/// visit order of epoch E depends only on (config seed, E) — never on how
/// many epochs ran before it — which is what lets a resumed run replay the
/// exact schedule of an uninterrupted one.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

}  // namespace embsr

#endif  // EMBSR_UTIL_RNG_H_
