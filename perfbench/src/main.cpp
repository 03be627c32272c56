// perfbench: one seeded workload of the Ivory benchmark per invocation.
//
//   perfbench --workload dse_study|pdn_transient
//             --seed N --seconds S --trace 0|1 --ivory PATH --run-dir DIR
//             [--git-sha SHA]
//
// stdout carries only the report: a metadata line (workload, seed, host,
// sample counts, notes) and, last, the result object
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload with spans on in every
// second round, runs the per-layer probes, writes a Chrome trace into the
// run directory, and reports the per-layer metrics. Logs go to stderr. A
// failed correctness check exits 1 naming the check and the seed, without a
// result.
//
//   perfbench --child parallel --seed N
//
// is the traced run's thread-pool probe child (parallel_probe.cpp).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using ivory::json::Value;

// Layers the workload loops call, whose traced self time is reported.
const char* const kLayers[] = {"core.pareto", "core.optimizer", "spice"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dse_study|pdn_transient "
               "--seed N --seconds S --trace 0|1 --ivory PATH "
               "--run-dir DIR [--git-sha SHA]\n",
               why);
  return 2;
}

pb::LoopResult run_loop(const pb::Options& o) {
  if (o.workload == "dse_study") return pb::run_dse(o, o.seconds);
  return pb::run_pdn(o, o.seconds);
}

Value metrics_json(const std::vector<pb::Metric>& ms) {
  Value::Object o;
  for (const pb::Metric& m : ms)
    o.emplace_back(m.name, Value(Value::Object{{"value", Value(m.value)},
                                               {"unit", Value(m.unit)}}));
  return Value(std::move(o));
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string git_sha = "unknown";
  int trace = -1;
  std::string child;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--trace") trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    else if (a == "--ivory") o.ivory = v;
    else if (a == "--run-dir") o.run_dir = v;
    else if (a == "--git-sha") git_sha = v;
    else if (a == "--child") child = v;
    else return usage(("unknown argument " + a).c_str());
  }
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (child == "parallel") {
    try {
      return pb::parallel_child(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: parallel probe child failed: %s\n", e.what());
      return 1;
    }
  }
  if (!child.empty()) return usage(("unknown child '" + child + "'").c_str());
  if (o.workload != "dse_study" && o.workload != "pdn_transient")
    return usage(("unknown workload '" + o.workload + "'").c_str());
  if (trace < 0) return usage("--trace must be 0 or 1");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  if (o.run_dir.empty() || o.ivory.empty()) return usage("--ivory and --run-dir are required");
  o.trace = trace == 1;
  std::signal(SIGPIPE, SIG_IGN);  // a server that dies mid-write surfaces as an error
  o.self = std::filesystem::absolute(argv[0]).string();
  std::filesystem::create_directories(o.run_dir);
  ivory::par::set_global_threads(pb::kPoolThreads);

  try {
    std::vector<pb::Metric> report;
    pb::LoopResult loop;
    std::string trace_file;
    if (!o.trace) {
      loop = run_loop(o);
      report = loop.e2e;
    } else {
      pb::spans::clear();
      loop = run_loop(o);  // spans on in odd rounds
      const std::vector<pb::spans::Rec> loop_spans = pb::spans::snapshot();
      pb::spans::enable(true);
      report = pb::run_probes(o);
      pb::spans::enable(false);
      const double traced_rounds = static_cast<double>(loop.rounds / 2);
      const auto self = pb::spans::self_ms_by_layer(loop_spans);
      for (const char* layer : kLayers) {
        double ms = 0.0;
        for (const auto& [name, v] : self)
          if (name == layer) ms = v;
        report.push_back({std::string("self_ms.") + layer, ms / traced_rounds, "ms"});
      }
      // Each untraced round and the traced round after it form a pair.
      std::vector<double> slowdown;
      for (std::size_t r = 0; r + 1 < loop.round_rate.size(); r += 2)
        slowdown.push_back(1.0 - loop.round_rate[r + 1] / loop.round_rate[r]);
      report.push_back({"trace.overhead_pct", 100.0 * pb::median(slowdown), "%"});
      trace_file = o.run_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
      if (!pb::spans::write_chrome(trace_file, pb::spans::snapshot()))
        throw std::runtime_error("cannot write " + trace_file);
      pb::log("Chrome trace: %s", trace_file.c_str());
    }

    Value::Object samples;
    for (const auto& [name, n] : loop.samples) samples.emplace_back(name, Value(static_cast<double>(n)));
    Value::Array notes;
    for (const std::string& n : loop.notes) {
      pb::log("%s", n.c_str());
      notes.emplace_back(n);
    }
    const Value meta(Value::Object{
        {"workload", Value(o.workload)},
        {"seed", Value(static_cast<double>(o.seed))},
        {"seconds", Value(o.seconds)},
        {"trace", Value(o.trace)},
        {"host", Value(Value::Object{{"nproc", Value(static_cast<double>(o.nproc))},
                                     {"compiler", Value(PERFBENCH_COMPILER)},
                                     {"build_type", Value(PERFBENCH_BUILD_TYPE)},
                                     {"git_sha", Value(git_sha)}})},
        {"rounds", Value(static_cast<double>(loop.rounds))},
        {"samples", Value(std::move(samples))},
        {"notes", Value(std::move(notes))},
        {"trace_file", trace_file.empty() ? Value() : Value(trace_file)}});
    const Value result(Value::Object{{"correct", Value(true)},
                                     {"attempted", Value(static_cast<double>(loop.ops))},
                                     {"failed", Value(0)},
                                     {"metrics", metrics_json(report)}});
    std::printf("%s\n%s\n", meta.write().c_str(), result.write().c_str());
    return 0;
  } catch (const pb::CheckFailure& e) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s (workload %s, seed %llu): %s\n",
                 e.check.c_str(), o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: FAILED (workload %s, seed %llu): %s\n", o.workload.c_str(),
                 static_cast<unsigned long long>(o.seed), e.what());
  }
  return 1;
}
