#ifndef EMBSR_UTIL_ENV_H_
#define EMBSR_UTIL_ENV_H_

#include <string>

namespace embsr {

/// Returns the environment variable's value, or `fallback` if unset/invalid.
/// A value is invalid when anything follows the number, when an int does
/// not fit in `int`, or when a double is not finite.
double GetEnvDouble(const char* name, double fallback);
int GetEnvInt(const char* name, int fallback);
std::string GetEnvString(const char* name, const std::string& fallback);

/// Global workload multiplier for the benchmark harnesses, read from
/// EMBSR_BENCH_SCALE (default 1.0). Values < 1 shrink dataset sizes and
/// epoch counts, values > 1 grow them toward the paper's scale.
double BenchScale();

}  // namespace embsr

#endif  // EMBSR_UTIL_ENV_H_
