// Thread-pool probes of the traced run: common.parallel and the DSE engine
// at nproc pool threads. They run in child processes (this binary with
// `--child parallel`), because with more than one pool thread a process
// aborts now and then (the pool race under Known faults in the README); the
// parent counts the children that died and keeps what each child printed
// before it did. A child prints one line per sample:
//
//   wave <us>                 one parallel_for wave of nproc empty tasks
//   identity <0|1>            first study point: frontier bytes at 1 == nproc threads
//   point <f1> <fn> <e1> <en> funnel (simulation off) and explore seconds, 1 / nproc threads
//   done
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "common/parallel.hpp"
#include "core/report_json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

namespace core = ivory::core;
namespace par = ivory::par;

namespace {

constexpr int kChildren = 3;
constexpr int kWaveBlocks = 5;
constexpr int kWavesPerBlock = 2000;
constexpr int kSpeedupPoints = 4;
constexpr double kChildTimeoutS = 20.0;

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

struct ChildOutcome {
  std::string out;      ///< complete lines printed before it ended
  bool crashed = false;  ///< died by a signal, or hung past the timeout
  int exit_code = 0;
};

ChildOutcome run_child(const Options& o) {
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> args = {o.self, "--child", "parallel", "--seed", std::to_string(o.seed)};
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::dup2(out[1], 1);
    ::close(out[0]);
    ::close(out[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ChildOutcome r;
  const Clock::time_point t0 = Clock::now();
  char buf[4096];
  for (;;) {
    const double left = kChildTimeoutS - seconds_since(t0);
    if (left <= 0) {
      r.crashed = true;  // hung
      ::kill(pid, SIGKILL);
      break;
    }
    pollfd p{out[0], POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    const ssize_t n = ::read(out[0], buf, sizeof buf);
    if (n <= 0) break;
    r.out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  r.out.erase(r.out.rfind('\n') == std::string::npos ? 0 : r.out.rfind('\n') + 1);
  if (WIFSIGNALED(status)) r.crashed = true;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

}  // namespace

int parallel_child(const Options& o) {
  const unsigned n = o.nproc;
  // Index 0 of each sample pair is 1 pool thread, index 1 is nproc.
  auto threads = [n](int k) { par::set_global_threads(k == 0 ? 1u : n); };
  threads(1);
  for (int b = 0; b < kWaveBlocks; ++b) {
    const double s = time_s([n] {
      for (int w = 0; w < kWavesPerBlock; ++w) par::parallel_for(n, [](std::size_t) {});
    });
    std::printf("wave %.17g\n", s / kWavesPerBlock * 1e6);
    std::fflush(stdout);
  }
  const std::vector<core::SystemParams> pts = dse_points(o.seed, kSpeedupPoints);
  std::string front[2];
  for (int k = 0; k < 2; ++k) {
    threads(k);
    core::funnel_sim_cache_clear();
    front[k] = core::to_json(core::funnel_explore(pts[0], core::FunnelSpec{})).write_canonical();
  }
  std::printf("identity %d\n", front[0] == front[1] ? 1 : 0);
  std::fflush(stdout);
  core::FunnelSpec screen;
  screen.simulate = false;
  for (const core::SystemParams& sys : pts) {
    double funnel_s[2], explore_s[2];
    for (int k = 0; k < 2; ++k) {
      threads(k);
      funnel_s[k] = time_s([&] { core::funnel_explore(sys, screen); });
      explore_s[k] = time_s([&] { core::explore(sys); });
    }
    std::printf("point %.17g %.17g %.17g %.17g\n", funnel_s[0], funnel_s[1], explore_s[0],
                explore_s[1]);
    std::fflush(stdout);
  }
  std::printf("done\n");
  return 0;
}

void probe_parallel(const Options& o, std::vector<Metric>& m) {
  std::vector<double> wave_us;
  double funnel_s[2] = {0, 0}, explore_s[2] = {0, 0};
  std::size_t crashed = 0;
  for (int c = 0; c < kChildren; ++c) {
    ChildOutcome r;
    {
      spans::Span sp("parallel_child", "common.parallel");
      r = run_child(o);
    }
    if (!r.crashed && r.exit_code != 0)
      throw std::runtime_error("parallel probe child exited " + std::to_string(r.exit_code));
    std::istringstream in(r.out);
    std::string kind;
    bool done = false;
    while (in >> kind) {
      if (kind == "wave") {
        double us = 0;
        in >> us;
        wave_us.push_back(us);
      } else if (kind == "identity") {
        int same = 0;
        in >> same;
        if (!same)
          fail_check("dse.frontier_thread_identity",
                     "first study point's frontier differs between 1 and " +
                         std::to_string(o.nproc) + " threads (seed " + std::to_string(o.seed) + ")");
      } else if (kind == "point") {
        double f1 = 0, fn = 0, e1 = 0, en = 0;
        in >> f1 >> fn >> e1 >> en;
        funnel_s[0] += f1;
        funnel_s[1] += fn;
        explore_s[0] += e1;
        explore_s[1] += en;
      } else if (kind == "done") {
        done = true;
      }
    }
    if (r.crashed || !done) {
      ++crashed;
      log("parallel probe: child at %u threads crashed (%zu bytes of samples kept)", o.nproc,
          r.out.size());
    }
  }
  m.push_back({"parallel.wave_us", wave_us.empty() ? 0.0 : median(wave_us), "us"});
  m.push_back({"pareto.screen_speedup", funnel_s[1] > 0 ? funnel_s[0] / funnel_s[1] : 0.0, "ratio"});
  m.push_back({"optimizer.speedup", explore_s[1] > 0 ? explore_s[0] / explore_s[1] : 0.0, "ratio"});
  m.push_back({"parallel.crashed_children", static_cast<double>(crashed), "count"});
}

}  // namespace pb
