#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace embsr {

int RankOfTarget(const std::vector<float>& scores, int64_t target) {
  EMBSR_CHECK_GE(target, 0);
  EMBSR_CHECK_LT(target, static_cast<int64_t>(scores.size()));
  const float ts = scores[target];
  int rank = 1;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (static_cast<int64_t>(i) == target) continue;
    if (scores[i] > ts ||
        (scores[i] == ts && static_cast<int64_t>(i) < target)) {
      ++rank;
    }
  }
  return rank;
}

std::vector<int64_t> TopKIndices(const std::vector<float>& scores, size_t k) {
  const size_t n = scores.size();
  k = std::min(k, n);
  std::vector<int64_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int64_t>(i);
  const auto better = [&scores](int64_t a, int64_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;  // same tie-break as RankOfTarget: lower id ranks ahead
  };
  if (k < n) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<int64_t>(k),
                     idx.end(), better);
    idx.resize(k);  // lint: allow(raw-resize): top-k truncation
  }
  std::sort(idx.begin(), idx.end(), better);
  return idx;
}

void RankAccumulator::Add(int rank) {
  EMBSR_CHECK_GE(rank, 1);
  ranks_.push_back(rank);
}

double RankAccumulator::HitAt(int k) const {
  if (ranks_.empty()) return 0.0;
  int hits = 0;
  for (int r : ranks_) {
    if (r <= k) ++hits;
  }
  return 100.0 * hits / static_cast<double>(ranks_.size());
}

double RankAccumulator::MrrAt(int k) const {
  if (ranks_.empty()) return 0.0;
  double acc = 0.0;
  for (int r : ranks_) {
    if (r <= k) acc += 1.0 / r;
  }
  return 100.0 * acc / static_cast<double>(ranks_.size());
}

MetricReport ReportAt(const RankAccumulator& acc, const std::vector<int>& ks) {
  MetricReport rep;
  for (int k : ks) {
    rep.hit[k] = acc.HitAt(k);
    rep.mrr[k] = acc.MrrAt(k);
  }
  return rep;
}

double WilcoxonSignedRankP(const std::vector<double>& a,
                           const std::vector<double>& b) {
  EMBSR_CHECK_EQ(a.size(), b.size());
  struct Diff {
    double abs;
    int sign;
  };
  std::vector<Diff> diffs;
  diffs.reserve(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    if (d == 0.0) continue;  // zero differences are dropped (Wilcoxon 1945)
    diffs.push_back({std::fabs(d), d > 0 ? 1 : -1});
  }
  const size_t n = diffs.size();
  if (n < 3) return 1.0;  // not enough evidence to reject anything

  std::sort(diffs.begin(), diffs.end(),
            [](const Diff& x, const Diff& y) { return x.abs < y.abs; });

  // Assign mid-ranks for ties; accumulate tie correction.
  double w_plus = 0.0;
  double tie_correction = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && diffs[j + 1].abs == diffs[i].abs) ++j;
    const double mid_rank = (static_cast<double>(i + 1) + (j + 1)) / 2.0;
    const double t = static_cast<double>(j - i + 1);
    if (t > 1) tie_correction += t * t * t - t;
    for (size_t k = i; k <= j; ++k) {
      if (diffs[k].sign > 0) w_plus += mid_rank;
    }
    i = j + 1;
  }

  const double mean = n * (n + 1) / 4.0;
  const double var =
      n * (n + 1) * (2.0 * n + 1) / 24.0 - tie_correction / 48.0;
  if (var <= 0.0) return 1.0;
  // Continuity correction.
  const double z = (std::fabs(w_plus - mean) - 0.5) / std::sqrt(var);
  // Two-sided p from the normal tail.
  const double p = std::erfc(z / std::sqrt(2.0));
  return std::min(1.0, p);
}

}  // namespace embsr
