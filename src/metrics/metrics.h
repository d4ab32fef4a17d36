#ifndef EMBSR_METRICS_METRICS_H_
#define EMBSR_METRICS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace embsr {

/// 1-based rank of `target` under `scores` (higher score = better rank).
/// Ties are broken pessimistically: items with equal score and lower id
/// rank ahead of the target only if their id is smaller — i.e. the target's
/// rank is 1 + (#items strictly better) + (#equal-score items with lower id),
/// which keeps evaluation deterministic.
int RankOfTarget(const std::vector<float>& scores, int64_t target);

/// Indices of the k highest-scoring items, best first, without sorting the
/// whole score vector (nth_element partition, then only the top-k slice is
/// sorted — O(n + k log k)). Ties break deterministically toward the lower
/// item id, matching RankOfTarget's convention. `k` is clamped to
/// `scores.size()`.
std::vector<int64_t> TopKIndices(const std::vector<float>& scores,
                                 std::size_t k);

/// Accumulates ranks of test predictions and reports HR@K / MRR@K (the
/// paper's H@K and M@K, Eq. 21–22), as percentages.
class RankAccumulator {
 public:
  void Add(int rank);

  int count() const { return static_cast<int>(ranks_.size()); }
  /// Fraction (in %) of cases with rank <= k.
  double HitAt(int k) const;
  /// Mean reciprocal rank (in %), zero when rank > k.
  double MrrAt(int k) const;

  const std::vector<int>& ranks() const { return ranks_; }

 private:
  std::vector<int> ranks_;
};

/// Holds H@K / M@K for a set of cutoffs; the unit is percent.
struct MetricReport {
  std::map<int, double> hit;
  std::map<int, double> mrr;
};

MetricReport ReportAt(const RankAccumulator& acc, const std::vector<int>& ks);

/// Two-sided Wilcoxon signed-rank test on paired samples (the significance
/// test the paper applies to per-session reciprocal ranks). Returns the
/// p-value under the normal approximation; ties and zero differences are
/// handled by the standard corrections. Requires a.size() == b.size().
double WilcoxonSignedRankP(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace embsr

#endif  // EMBSR_METRICS_METRICS_H_
