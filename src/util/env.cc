#include "util/env.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace embsr {

double GetEnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || !std::isfinite(v)) return fallback;
  return v;
}

int GetEnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX) {
    return fallback;
  }
  return static_cast<int>(v);
}

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return raw;
}

double BenchScale() { return GetEnvDouble("EMBSR_BENCH_SCALE", 1.0); }

}  // namespace embsr
