#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include <sys/resource.h>

#include "common.hpp"
#include "common/hash.hpp"

namespace pb {

namespace {
const Clock::time_point g_start = Clock::now();
}

Clock::time_point process_start() { return g_start; }

std::uint64_t digest(const std::string& s) { return ivory::fnv1a64(s); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void log(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
}

double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace pb
