// Chaos traffic driver for the embsr::serve frontend: Zipf-skewed session
// traffic with flash-crowd spikes, faults injected mid-run (scorer errors,
// store failures, injected scorer latency), reporting tail latency, QPS,
// shed rate and degraded fraction. The run itself is the test: the serving
// core must absorb every phase — overload sheds, faults degrade, nothing
// crashes and nothing exceeds its latency budget silently.
//
// Knobs: EMBSR_BENCH_SCALE for traffic volume. The frontend runs a default
// ServeConfig (serve/frontend.h) with a 64-slot queue. Arming
// EMBSR_FAILPOINTS adds *external* chaos on top of the phases scripted here
// (the sanitizer matrix's chaos leg does exactly that).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "robust/failpoint.h"
#include "serve/frontend.h"
#include "train/model_zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using namespace embsr;         // NOLINT — bench binary
using namespace embsr::bench;  // NOLINT

double PercentileOf(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace

int main() {
  PrintHeader("Serve chaos: tail latency under overload and injected faults",
              "robustness extension (no paper counterpart); serving the "
              "ICDE'22 EMBSR models online",
              "three phases: clean traffic, hard faults (scorer/store "
              "errors), slow dependency (injected scorer latency)");
  BenchReport report("serve_chaos");

  // A small JD-style dataset: the primary is a real trained model so the
  // full-price scoring path has realistic cost; the fallback is fit on the
  // same training split.
  const ProcessedDataset data = LoadDataset("appliances");

  TrainConfig tc = BenchTrainConfig();
  tc.epochs = 1;
  tc.validate_every = 0;
  auto primary = CreateModel("STAMP", data.num_items, data.num_operations, tc);
  EMBSR_CHECK(primary != nullptr);
  EMBSR_CHECK_OK(primary->Fit(data));
  primary->EnsureEvalMode();

  serve::PopularityScorer fallback;
  EMBSR_CHECK_OK(fallback.Fit(data));

  serve::ServeConfig cfg;
  cfg.queue_capacity = 64;
  serve::ServeFrontend frontend(cfg, primary.get(), &fallback);

  // Micro-behavior streams to replay, rebuilt from the processed test split
  // (same contiguous item/op vocabulary the model was trained on); session
  // popularity is Zipf-skewed so a handful of hot sessions dominate, as in
  // production traffic.
  std::vector<Session> sessions;
  for (const Example& ex : data.test.empty() ? data.train : data.test) {
    Session s;
    for (size_t i = 0; i < ex.flat_items.size(); ++i) {
      s.events.push_back(MicroBehavior{ex.flat_items[i], ex.flat_ops[i]});
    }
    if (!s.events.empty()) sessions.push_back(std::move(s));
  }
  EMBSR_CHECK(!sessions.empty());
  const std::vector<double> session_weights =
      ZipfWeights(sessions.size(), 1.0);
  std::vector<size_t> cursors(sessions.size(), 0);
  Rng traffic(DeriveSeed(cfg.seed, 0xC4A05));

  const int steps = std::max(200, static_cast<int>(2000 * BenchScale()));
  const int fault_begin = steps / 3;
  const int slow_begin = 2 * steps / 3;
  // A flash crowd every 100 steps: 3x the drain rate for 15 steps, which
  // overflows the 64-slot queue and forces shedding.
  auto in_spike = [](int step) { return step % 100 >= 85; };

  uint64_t next_request_id = 1;
  int64_t submitted = 0;
  int64_t shed = 0;
  std::vector<serve::ServeResponse> responses;
  WallTimer wall;

  for (int step = 0; step < steps; ++step) {
    if (step == fault_begin) {
      // Phase 2: hard faults. Scorer fails 30% of calls (enough to trip
      // the breaker during bursts), the store 10%.
      EMBSR_CHECK_OK(robust::Failpoints::Global().Configure(
          "serve.score=0.3,serve.store_read=0.1"));
    }
    if (step == slow_begin) {
      // Phase 3: the dependency is up but slow — 20% of scorer calls
      // stall 25 ms against a 50 ms default budget.
      EMBSR_CHECK_OK(robust::Failpoints::Global().Configure(
          "serve.score=0.2@25ms,serve.store_read=0"));
    }
    const int arrivals = in_spike(step) ? 12 : 2;
    for (int a = 0; a < arrivals; ++a) {
      const size_t sidx = traffic.Categorical(session_weights);
      const auto& events = sessions[sidx].events;
      serve::Request req;
      req.request_id = next_request_id++;
      req.session_id = static_cast<uint64_t>(sidx);
      req.event = events[cursors[sidx] % events.size()];
      ++cursors[sidx];
      ++submitted;
      const Status s = frontend.Submit(req);
      if (!s.ok()) {
        EMBSR_CHECK(s.code() == StatusCode::kResourceExhausted);
        ++shed;
      }
    }
    for (int d = 0; d < 4 && frontend.queue_depth() > 0; ++d) {
      auto r = frontend.ProcessNext();
      EMBSR_CHECK_OK(r);
      responses.push_back(std::move(r).value());
    }
  }
  robust::Failpoints::Global().ReinitFromEnv();
  for (auto& resp : frontend.ProcessAll()) responses.push_back(resp);
  const double wall_seconds = wall.ElapsedSeconds();

  int64_t answered = 0;
  int64_t degraded = 0;
  int64_t expired = 0;
  std::vector<double> latencies;
  latencies.reserve(responses.size());
  for (const auto& resp : responses) {
    latencies.push_back(resp.latency_ms);
    if (resp.status.ok()) {
      ++answered;
      EMBSR_CHECK(!resp.top_items.empty());
      EMBSR_CHECK(resp.top_items.size() <= cfg.top_k);
      if (resp.degraded) {
        ++degraded;
        EMBSR_CHECK(!resp.degraded_reason.empty());
      }
    } else {
      EMBSR_CHECK(resp.status.code() == StatusCode::kDeadlineExceeded);
      ++expired;
    }
  }
  EMBSR_CHECK(static_cast<int64_t>(responses.size()) == submitted - shed);

  const double p50 = PercentileOf(latencies, 50.0);
  const double p99 = PercentileOf(latencies, 99.0);
  const double qps =
      wall_seconds > 0 ? static_cast<double>(responses.size()) / wall_seconds
                       : 0.0;
  const double shed_rate =
      submitted > 0 ? static_cast<double>(shed) / static_cast<double>(submitted)
                    : 0.0;
  const double degraded_fraction =
      answered > 0
          ? static_cast<double>(degraded) / static_cast<double>(answered)
          : 0.0;

  std::printf("traffic: %lld submitted, %lld shed, %lld answered "
              "(%lld degraded), %lld abandoned past deadline\n",
              static_cast<long long>(submitted), static_cast<long long>(shed),
              static_cast<long long>(answered),
              static_cast<long long>(degraded),
              static_cast<long long>(expired));
  std::printf("latency: p50 %.3f ms, p99 %.3f ms | %.0f qps | "
              "shed %.1f%% | degraded %.1f%%\n",
              p50, p99, qps, 100.0 * shed_rate, 100.0 * degraded_fraction);
  std::printf("store: %zu live sessions, %lld evictions | breaker state %d\n",
              frontend.store().size(),
              static_cast<long long>(frontend.store().evictions()),
              static_cast<int>(frontend.breaker().state()));

  report.AddScalar("latency_p50_ms", p50);
  report.AddScalar("latency_p99_ms", p99);
  report.AddScalar("qps", qps);
  report.AddScalar("shed_rate", shed_rate);
  report.AddScalar("degraded_fraction", degraded_fraction);
  report.AddScalar("requests_submitted", static_cast<double>(submitted));
  report.AddScalar("requests_answered", static_cast<double>(answered));
  report.AddScalar("deadline_abandoned", static_cast<double>(expired));
  return 0;
}
