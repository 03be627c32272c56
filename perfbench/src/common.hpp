// Shared plumbing of the benchmark: clocks, the seeded generator, run
// options, the metric list a run reports, and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process start, captured during static initialization of this binary;
/// setup_s of the first round is measured from here.
Clock::time_point process_start();

/// splitmix64: the benchmark's inputs are a pure function of --seed.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
  }
  /// Integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Pool threads of the workload loops (and of a serve probe's fallback
/// server, see probes.cpp). With more than one,
/// par::parallel_for lets a worker signal a batch that parallel_for has
/// already returned from and destroyed; a process aborts now and then
/// (pthread_mutex_lock assertion on the reused stack slot), in ~1 of 25
/// dse_study runs at 4 threads. A one-thread pool runs every batch inline.
/// The traced run measures the nproc-thread paths in child processes and
/// counts their crashes (parallel_probe.cpp, probes.cpp).
constexpr unsigned kPoolThreads = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ivory;    ///< path of the ivory binary (serve probes)
  std::string run_dir;  ///< scratch directory for sockets, stores, traces
  std::string self;     ///< path of this binary (thread-pool probe children)
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload loop measured. `ops` counts every timed operation the
/// loop attempted; a failed operation throws, so a finished loop has none.
struct LoopResult {
  std::uint64_t ops = 0;
  std::uint64_t rounds = 0;
  std::vector<double> round_rate;  ///< a_per_s of each round
  std::vector<Metric> e2e;
  std::vector<std::pair<std::string, std::size_t>> samples;  ///< per timing
  std::vector<std::string> notes;  ///< known-fault counts etc., for stderr
};

/// A correctness check that rejected the program's output.
struct CheckFailure : std::runtime_error {
  std::string check;
  CheckFailure(std::string check_name, const std::string& detail)
      : std::runtime_error(check_name + ": " + detail), check(std::move(check_name)) {}
};

[[noreturn]] inline void fail_check(const std::string& check, const std::string& detail) {
  throw CheckFailure(check, detail);
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// fnv1a64 of a byte string (round-to-round reproduction checks).
std::uint64_t digest(const std::string& s);

/// Peak resident set of this process (MiB).
double self_peak_rss_mib();

}  // namespace pb
