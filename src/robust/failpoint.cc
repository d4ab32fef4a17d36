#include "robust/failpoint.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace embsr {
namespace robust {

namespace {

// The draws' fixed seed: 0xFA11FA11FA11FA11 rounded to a double's 53-bit
// mantissa, the seed every recorded chaos run drew from, so they replay.
constexpr uint64_t kSeed = 0xFA11FA11FA11F800ULL;

/// Parses one `site=prob[xLIMIT][@SKIP|@DELAYms]` clause into (site, spec).
Status ParseClause(const std::string& clause, std::string* site,
                   FailpointSpec* spec) {
  const size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("failpoint clause '" + clause +
                                   "' is not site=spec");
  }
  *site = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);

  spec->remaining = -1;
  spec->skip = 0;
  spec->delay_ms = 0;
  const size_t at = rest.find('@');
  if (at != std::string::npos) {
    std::string suffix = rest.substr(at + 1);
    // A trailing "ms" selects latency-injection mode; a bare integer is the
    // classic skip count. "@ms", "@-3ms" and "@2.5ms" are all malformed.
    const bool is_delay =
        suffix.size() > 2 && suffix.substr(suffix.size() - 2) == "ms";
    if (is_delay) suffix = suffix.substr(0, suffix.size() - 2);
    char* end = nullptr;
    const int64_t value = std::strtoll(suffix.c_str(), &end, 10);
    if (suffix.empty() || end != suffix.c_str() + suffix.size() ||
        value < 0 || (is_delay && value == 0)) {
      return Status::InvalidArgument("failpoint '" + *site + "': bad @" +
                                     (is_delay ? "delay" : "skip") +
                                     " in '" + rest + "'");
    }
    if (is_delay) {
      spec->delay_ms = value;
    } else {
      spec->skip = value;
    }
    rest = rest.substr(0, at);
  }
  const size_t x = rest.find('x');
  if (x != std::string::npos) {
    char* end = nullptr;
    spec->remaining = std::strtoll(rest.c_str() + x + 1, &end, 10);
    if (end == rest.c_str() + x + 1 || *end != '\0' || spec->remaining < 0) {
      return Status::InvalidArgument("failpoint '" + *site +
                                     "': bad xlimit in '" + rest + "'");
    }
    rest = rest.substr(0, x);
  }
  char* end = nullptr;
  spec->probability = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str() || *end != '\0' || spec->probability < 0.0 ||
      spec->probability > 1.0) {
    return Status::InvalidArgument("failpoint '" + *site +
                                   "': probability '" + rest +
                                   "' not in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

Failpoints::Failpoints() : rng_(kSeed) {}

Failpoints& Failpoints::Global() {
  static Failpoints* instance = [] {
    auto* fp = new Failpoints();  // lint: allow(raw-new): leaked singleton, never destroyed
    std::lock_guard<std::mutex> lock(fp->mu_);
    fp->ConfigureFromEnvLocked();
    return fp;
  }();
  return *instance;
}

void Failpoints::ConfigureFromEnvLocked() {
  const std::string spec = GetEnvString("EMBSR_FAILPOINTS", "");
  if (spec.empty()) return;
  for (const std::string& clause : Split(spec, ',')) {
    if (clause.empty()) continue;
    std::string site;
    FailpointSpec parsed;
    const Status s = ParseClause(clause, &site, &parsed);
    if (!s.ok()) {
      EMBSR_LOG(Warning) << "ignoring EMBSR_FAILPOINTS clause: "
                         << s.ToString();
      continue;
    }
    sites_[site] = parsed;
    EMBSR_LOG(Info) << "failpoint armed: " << site << " p="
                    << parsed.probability << " limit=" << parsed.remaining
                    << " skip=" << parsed.skip
                    << " delay_ms=" << parsed.delay_ms;
  }
}

Status Failpoints::Configure(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& clause : Split(spec, ',')) {
    if (clause.empty()) continue;
    std::string site;
    FailpointSpec parsed;
    const Status s = ParseClause(clause, &site, &parsed);
    if (!s.ok()) return s;
    sites_[site] = parsed;
  }
  return Status::OK();
}

void Failpoints::Set(const std::string& site, double probability,
                     int64_t limit, int64_t skip) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = FailpointSpec{probability, limit, skip, /*delay_ms=*/0};
}

void Failpoints::SetDelay(const std::string& site, double probability,
                          int64_t delay_ms, int64_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = FailpointSpec{probability, limit, /*skip=*/0, delay_ms};
}

void Failpoints::Clear(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  counts_.erase(site);
}

void Failpoints::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  counts_.clear();
}

bool Failpoints::EvaluateLocked(const std::string& site,
                                FailpointSpec* spec) {
  static obs::Counter* triggers =
      obs::Registry::Global().GetCounter("robust/failpoint_triggers");
  if (spec->skip > 0) {
    --spec->skip;
    return false;
  }
  if (spec->remaining == 0) return false;
  const bool fire =
      spec->probability >= 1.0 || rng_.Bernoulli(spec->probability);
  if (!fire) return false;
  if (spec->remaining > 0) --spec->remaining;
  ++counts_[site];
  triggers->Increment();
  obs::Registry::Global().GetCounter("robust/failpoint/" + site)->Increment();
  return true;
}

bool Failpoints::ShouldFail(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || it->second.delay_ms > 0) return false;
  return EvaluateLocked(site, &it->second);
}

int64_t Failpoints::ShouldDelayMs(const std::string& site) {
  static obs::Counter* delay_total =
      obs::Registry::Global().GetCounter("robust/failpoint_delay_ms_total");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || it->second.delay_ms <= 0) return 0;
  if (!EvaluateLocked(site, &it->second)) return 0;
  delay_total->Add(it->second.delay_ms);
  return it->second.delay_ms;
}

int64_t Failpoints::TriggerCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(site);
  return it == counts_.end() ? 0 : it->second;
}

void Failpoints::ReinitFromEnv() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  counts_.clear();
  ConfigureFromEnvLocked();
}

Status InjectedFailure(const std::string& site, const std::string& what) {
  return Status::Internal("failpoint '" + site + "' injected failure: " +
                          what);
}

}  // namespace robust
}  // namespace embsr
