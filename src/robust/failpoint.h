#ifndef EMBSR_ROBUST_FAILPOINT_H_
#define EMBSR_ROBUST_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/rng.h"
#include "util/status.h"

namespace embsr {
namespace robust {

/// Fault injection for tests and chaos runs.
///
/// A *failpoint* is a named site in the code (e.g. "ckpt.write") that asks
/// the registry whether it should fail this time. Sites are armed either
/// programmatically (Set) or from the environment:
///
///   EMBSR_FAILPOINTS="ckpt.write=0.5,io.read=1,train.nan_grad=1x2@3"
///
/// Per-site spec grammar: `prob[xLIMIT][@SKIP|@DELAYms]` —
///   prob     trigger probability in [0, 1] (1 = always)
///   xLIMIT   trigger at most LIMIT times, then the site goes quiet
///   @SKIP    ignore the first SKIP evaluations of the site before arming
///            (lets a test say "fail the *third* checkpoint write")
///   @DELAYms arm the site in *latency-injection* mode: instead of a hard
///            failure, each trigger asks the caller to stall DELAY
///            milliseconds (e.g. "serve.score=0.3@20ms" makes 30% of
///            scoring calls 20 ms slower). Slow dependencies — not just
///            dead ones — are a first-class injectable fault. A site is in
///            exactly one mode: ShouldFail() ignores latency sites and
///            ShouldDelayMs() ignores error sites.
///
/// Draws come from a dedicated RNG with a fixed seed, so injected chaos is
/// reproducible like everything else in this repo.
/// Trigger counts are kept per site and mirrored into the obs metrics
/// registry (`robust/failpoint_triggers` plus `robust/failpoint/<site>`).

/// One armed site.
struct FailpointSpec {
  double probability = 0.0;
  /// Remaining allowed triggers; negative = unlimited.
  int64_t remaining = -1;
  /// Evaluations of the site still to be ignored before it can trigger.
  int64_t skip = 0;
  /// > 0 puts the site in latency-injection mode: triggers request a stall
  /// of this many milliseconds instead of a hard failure.
  int64_t delay_ms = 0;
};

class Failpoints {
 public:
  /// The process-wide registry. EMBSR_FAILPOINTS is parsed on first use
  /// (a malformed spec is logged and ignored so a typo cannot take down a
  /// production run).
  static Failpoints& Global();

  /// Parses a spec string (see grammar above) and arms every site in it,
  /// replacing existing entries for the same sites.
  Status Configure(const std::string& spec);

  /// Arms one site programmatically (error mode).
  void Set(const std::string& site, double probability, int64_t limit = -1,
           int64_t skip = 0);

  /// Arms one site programmatically in latency-injection mode.
  void SetDelay(const std::string& site, double probability, int64_t delay_ms,
                int64_t limit = -1);

  void Clear(const std::string& site);
  void ClearAll();

  /// True when `site` should fail now. Decrements limits, honors skips,
  /// bumps trigger counters. Thread-safe; unarmed sites cost one map
  /// lookup under a mutex (failpoints sit on cold paths: file writes,
  /// epoch boundaries — never inner loops). Latency-mode sites never
  /// hard-fail; they return false here.
  bool ShouldFail(const std::string& site);

  /// Milliseconds the caller should stall right now, or 0. Only sites armed
  /// in latency mode (`@DELAYms`) ever return non-zero; the draw obeys the
  /// same probability/limit/counter machinery as ShouldFail. The caller
  /// applies the stall through its own clock (a serving frontend sleeps,
  /// a test advances its manual clock), so injected latency composes with
  /// deadline accounting instead of bypassing it.
  int64_t ShouldDelayMs(const std::string& site);

  /// How many times `site` has triggered since the last ClearAll/Clear.
  int64_t TriggerCount(const std::string& site) const;

  /// Drops all sites and re-reads EMBSR_FAILPOINTS. Tests only.
  void ReinitFromEnv();

 private:
  Failpoints();

  void ConfigureFromEnvLocked();

  /// Shared trigger machinery: honors skip, limit and the probability draw,
  /// and bumps the per-site counters on a trigger. Caller holds mu_.
  bool EvaluateLocked(const std::string& site, FailpointSpec* spec);

  mutable std::mutex mu_;
  std::map<std::string, FailpointSpec> sites_;
  std::map<std::string, int64_t> counts_;
  Rng rng_;
};

/// Builds the Status an injected failure should surface as; `what` names
/// the operation from the caller's point of view.
Status InjectedFailure(const std::string& site, const std::string& what);

}  // namespace robust
}  // namespace embsr

#endif  // EMBSR_ROBUST_FAILPOINT_H_
