#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/check.h"

namespace embsr {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  EMBSR_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    EMBSR_CHECK(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  p = std::min(100.0, std::max(0.0, p));
  const std::vector<int64_t> counts = bucket_counts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the target sample, 1-based; p=0 maps to rank 1 so the result
  // stays inside the populated range.
  int64_t rank = static_cast<int64_t>(p / 100.0 * static_cast<double>(total));
  if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(total)) {
    ++rank;  // ceil
  }
  rank = std::min(total, std::max<int64_t>(1, rank));
  int64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cum + counts[i] >= rank) {
      if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(counts[i]);
      return lower + (upper - lower) * frac;
    }
    cum += counts[i];
  }
  return bounds_.back();  // unreachable unless racing with Observe
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
      5000.0};
  return kBuckets;
}

Registry& Registry::Global() {
  static Registry* instance =
      new Registry();  // lint: allow(raw-new): leaked singleton, never destroyed
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.counts = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

std::string Registry::SnapshotJson() const {
  const MetricsSnapshot snap = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, v] : snap.counters) w.Key(name).Int(v);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, v] : snap.gauges) w.Key(name).Number(v);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& h : snap.histograms) {
    w.Key(h.name).BeginObject();
    w.Key("bounds").BeginArray();
    for (double b : h.bounds) w.Number(b);
    w.EndArray();
    w.Key("counts").BeginArray();
    for (int64_t c : h.counts) w.Int(c);
    w.EndArray();
    w.Key("count").Int(h.count);
    w.Key("sum").Number(h.sum);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace embsr
