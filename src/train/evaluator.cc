#include "train/evaluator.h"

#include <algorithm>

#include "models/neural_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/check.h"
#include "util/timer.h"

namespace embsr {

std::vector<double> EvalResult::ReciprocalRanksAt(int k) const {
  std::vector<double> out;
  out.reserve(ranks.size());
  for (int r : ranks) out.push_back(r <= k ? 1.0 / r : 0.0);
  return out;
}

EvalResult Evaluate(Recommender* model, const std::vector<Example>& test,
                    const std::vector<int>& ks, size_t max_examples) {
  EMBSR_TRACE_SPAN("eval/evaluate");
  static obs::Counter* example_counter =
      obs::Registry::Global().GetCounter("eval/examples");
  static obs::Gauge* throughput_gauge =
      obs::Registry::Global().GetGauge("eval/examples_per_sec");

  EMBSR_CHECK(model != nullptr);
  EvalResult result;
  RankAccumulator acc;
  const size_t n =
      max_examples == 0 ? test.size() : std::min(test.size(), max_examples);
  WallTimer timer;
  // Examples are scored in parallel, in chunks of the model's forward
  // batch (1 for memory-based models): each loop index owns one chunk's
  // contiguous slots of the preallocated rank vector, so the merged result
  // is in example order regardless of which thread scored what. The model
  // must be pinned in eval mode first so scoring is read-only (see
  // Recommender's thread-safety contract); per-chunk model work (e.g.
  // parallel MatMul) automatically runs serially inside the pool, and eval
  // scores are bitwise equal at any forward batch, so every example's
  // scores are bit-identical to a serial evaluation.
  model->EnsureEvalMode();
  result.ranks.assign(n, 0);
  auto* neural = dynamic_cast<NeuralSessionModel*>(model);
  const int forward_batch =
      neural != nullptr ? neural->config().forward_batch : 1;
  EMBSR_CHECK_GE(forward_batch, 1);
  const size_t chunk_size = static_cast<size_t>(forward_batch);
  const int64_t num_chunks =
      static_cast<int64_t>((n + chunk_size - 1) / chunk_size);
  par::For(0, num_chunks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t ci = lo; ci < hi; ++ci) {
      const size_t begin = static_cast<size_t>(ci) * chunk_size;
      const size_t end = std::min(begin + chunk_size, n);
      std::vector<const Example*> chunk;
      chunk.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) chunk.push_back(&test[i]);
      std::vector<std::vector<float>> scores;
      if (neural != nullptr) {
        scores = neural->ScoreBatch(chunk);
      } else {
        scores.push_back(model->ScoreAll(*chunk[0]));  // one-example chunk
      }
      for (size_t i = begin; i < end; ++i) {
        result.ranks[i] = RankOfTarget(scores[i - begin], test[i].target);
      }
    }
  });
  for (int rank : result.ranks) acc.Add(rank);
  const double seconds = timer.ElapsedSeconds();
  example_counter->Add(static_cast<int64_t>(n));
  if (seconds > 0.0) {
    throughput_gauge->Set(static_cast<double>(n) / seconds);
  }
  result.report = ReportAt(acc, ks);
  return result;
}

}  // namespace embsr
