#ifndef EMBSR_OBS_METRICS_H_
#define EMBSR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace embsr {
namespace obs {

/// Naming scheme: `<subsystem>/<what>[_<unit>]`, e.g. `autograd/backward_ms`
/// (histogram), `eval/examples` (counter), `train/loss` (gauge). Units are
/// part of the name so snapshots are self-describing.

/// Monotonically increasing integer metric. Lock-free; safe to bump from any
/// thread.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. A sample `v` lands in the first bucket whose
/// upper bound satisfies `v <= bound`; samples above the last bound land in
/// an implicit overflow bucket, so `bucket_counts()` has `bounds.size() + 1`
/// entries. Observation is lock-free.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// Bucket-interpolated percentile estimate, `p` in [0, 100]. Contract:
  /// an empty histogram returns 0.0; with samples, the result lies within
  /// the bucket containing the rank-⌈p/100·count⌉ sample (linear
  /// interpolation by rank inside the bucket, bucket lower edge 0.0 for the
  /// first bucket) and is monotone in `p`. Samples in the overflow bucket
  /// are credited the last finite bound — percentiles are estimates, not
  /// exact order statistics. Lock-free; concurrent Observe calls may be
  /// partially visible.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> bucket_counts() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket bounds (milliseconds) for latency histograms.
const std::vector<double>& DefaultLatencyBucketsMs();

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<int64_t> counts;  // bounds.size() + 1, overflow last
  int64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Process-global metric registry. Get* registers on first use and returns
/// a stable pointer — call sites cache it in a function-local static so the
/// steady state is one map lookup per process, not per call. Registration
/// takes a mutex; recording through the returned handles is lock-free.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is used only on first registration of `name`.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  MetricsSnapshot Snapshot() const;
  /// Snapshot serialized as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  std::string SnapshotJson() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace embsr

#endif  // EMBSR_OBS_METRICS_H_
