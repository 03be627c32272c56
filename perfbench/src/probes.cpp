// Per-layer metrics of the traced run. Each probe times calls from here into
// one layer's public functions, or reads counters the program already
// returns (FunnelStats, SweepReport, TranResult, the serve stats/metrics
// ops). The procedure is the same for every workload, so a traced run of
// any workload reports every layer.
#include <algorithm>
#include <exception>
#include <filesystem>

#include "checks.hpp"
#include "core/dynamic.hpp"
#include "serve/frame.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"
#include "serve/wave_codec.hpp"
#include "serve_stream.hpp"
#include "spans.hpp"
#include "spice/analysis.hpp"
#include "workloads.hpp"

namespace pb {

namespace core = ivory::core;
namespace spice = ivory::spice;
namespace pdn = ivory::pdn;
namespace serve = ivory::serve;
using ivory::json::Value;

namespace {

constexpr int kProbePoints = 8;

template <typename Fn>
double time_s(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

void probe_dse(const Options& o, std::vector<Metric>& m) {
  const core::FunnelSpec spec;
  const std::vector<core::SystemParams> pts = dse_points(o.seed, kProbePoints);
  core::funnel_sim_cache_clear();
  double screen_s = 0, screened = 0, sim_s = 0, explore_s = 0, evaluated = 0;
  std::size_t hits = 0, mismatches = 0;
  core::ParetoFront first;
  for (const core::SystemParams& sys : pts) {
    core::ParetoFront f;
    {
      spans::Span sp("funnel_explore", "core.pareto");
      f = core::funnel_explore(sys, spec);
    }
    screen_s += f.stats.screen_s;
    screened += static_cast<double>(f.stats.n_screened);
    sim_s += f.stats.sim_s;
    hits += f.stats.sim_cache_hits;
    mismatches += checks::screen_exact_mismatches(f);
    if (first.points.empty()) first = f;
    ivory::SweepReport rep;
    explore_s += time_s([&] {
      spans::Span sp("explore", "core.optimizer");
      core::explore(sys, core::OptTarget::Efficiency, &rep);
    });
    evaluated += static_cast<double>(rep.n_evaluated);
  }
  m.push_back({"pareto.screen_ns_per_candidate", screen_s / screened * 1e9, "ns"});
  m.push_back({"pareto.sim_ms", sim_s / kProbePoints * 1e3, "ms"});
  m.push_back({"pareto.sim_cache_hits", static_cast<double>(hits), "count"});
  m.push_back({"pareto.screen_exact_mismatches", static_cast<double>(mismatches), "count"});
  m.push_back({"optimizer.us_per_candidate", explore_s / evaluated * 1e6, "us"});

  // The funnel's stage-3 load step (1 us at 1 ns: a third at the average
  // load, a third at 1.6x, a third at 0.6x) on the first point's frontier.
  const core::SystemParams& sys = pts[0];
  double dyn_s = 0, samples = 0;
  for (const core::ParetoPoint& p : first.points) {
    if (!p.design.feasible) continue;
    const std::size_t n = 1000;
    const double i_ivr = p.ivr_load_frac * sys.p_load_w / sys.vout_v / p.design.n_distributed;
    std::vector<double> trace(n);
    for (std::size_t k = 0; k < n; ++k)
      trace[k] = i_ivr * (k < n / 3 ? 1.0 : k < 2 * n / 3 ? 1.6 : 0.6);
    const core::DseResult& d = p.design;
    dyn_s += time_s([&] {
      spans::Span sp("combined_response", "core.dynamic");
      switch (d.topology) {
        case core::IvrTopology::SwitchedCapacitor:
          core::sc_combined_response(d.sc, sys.vin_v, sys.vout_v, trace, 1e-9);
          break;
        case core::IvrTopology::Buck:
          core::buck_combined_response(d.buck, sys.vin_v, sys.vout_v, trace, 1e-9);
          break;
        case core::IvrTopology::LinearRegulator:
          core::ldo_combined_response(d.ldo, sys.vin_v, sys.vout_v, trace, 1e-9);
          break;
        case core::IvrTopology::DigitalLdo:
          core::dldo_combined_response(d.dldo, sys.vin_v, sys.vout_v, trace, 1e-9);
          break;
      }
    });
    samples += static_cast<double>(n);
  }
  m.push_back({"dynamic.ns_per_sample", samples > 0 ? dyn_s / samples * 1e9 : 0.0, "ns"});
}

void probe_spice(const Options& o, std::vector<Metric>& m) {
  // Eight grid runs: a 2-step and a long run per size, trapezoidal. A
  // linear time-invariant grid needs two factorizations per run: the
  // backward-Euler start step and the trapezoidal steps.
  std::size_t factorizations = 0;
  std::vector<Metric> setup, solve, nnz;
  for (const GridCase& g : grid_cases(o.seed)) {
    // The long horizon of each size: 300 steps up to 64x64, 30 at 100x100.
    const bool longest = g.steps == 300 || g.params.nx == 100;
    if (!longest) continue;
    const spice::Circuit ckt = pdn::make_grid_circuit(g.params);
    auto run = [&](int steps) {
      spice::TranSpec spec;
      spec.dt = 0.1e-9;
      spec.tstop = steps * spec.dt;
      spec.record_nodes = {1};
      spice::TranResult r;
      const double s = time_s([&] {
        spans::Span sp("transient.grid", "spice");
        r = spice::transient(ckt, spec);
      });
      factorizations += r.lu_factorizations;
      return std::make_pair(s, r);
    };
    const auto [s2, r2] = run(2);
    const auto [sl, rl] = run(g.steps);
    const std::string size = std::to_string(g.params.nx);
    setup.push_back({"spice.grid_setup_ms." + size, s2 * 1e3, "ms"});
    solve.push_back({"spice.grid_solve_us_per_step." + size,
                     (sl - s2) / static_cast<double>(rl.steps_taken - r2.steps_taken) * 1e6, "us"});
    nnz.push_back({"spice.grid_factor_nnz." + size, static_cast<double>(rl.factor_nnz), "count"});
  }
  m.insert(m.end(), setup.begin(), setup.end());
  m.insert(m.end(), solve.begin(), solve.end());
  m.push_back({"spice.grid_factorizations", static_cast<double>(factorizations), "count"});
  m.insert(m.end(), nnz.begin(), nnz.end());

  double conv_s = 0, steps = 0, hits = 0;
  for (Converter& c : converters(o.seed)) {
    spice::TranResult r;
    conv_s += time_s([&] {
      spans::Span sp("transient.converter", "spice");
      r = spice::transient(c.ckt, c.spec);
    });
    steps += static_cast<double>(r.steps_taken);
    hits += static_cast<double>(r.lu_cache_hits);
  }
  m.push_back({"spice.converter_ns_per_step", conv_s / steps * 1e9, "ns"});
  m.push_back({"spice.converter_lu_hit_ratio", hits / steps, "ratio"});
}

// In-process serve layers on the stream's own lines.
double probe_serve_inproc(const Options& o, std::vector<Metric>& m) {
  const std::vector<ServeReq> reqs = serve_stream(o.seed);
  std::vector<std::string> lines;
  for (const ServeReq& r : reqs)
    if (!r.stream) lines.push_back(r.line(0));

  const double decode_s = time_s([&] {
    for (const std::string& l : lines) {
      spans::Span sp("parse_request", "serve.request");
      serve::parse_request(Value::parse(l));
    }
  });
  m.push_back({"serve.decode_us", decode_s / static_cast<double>(lines.size()) * 1e6, "us"});

  serve::Service svc{serve::ServiceOptions{}};
  std::vector<std::string> replies(lines.size());
  double miss_s = 0, misses = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t before = svc.stats().n_evaluations;
    const double s = time_s([&] {
      spans::Span sp("handle_line", "serve.service");
      replies[i] = svc.handle_line(lines[i]);
    });
    if (svc.stats().n_evaluations > before) {
      miss_s += s;
      ++misses;
    }
  }
  const double hit_s = time_s([&] {
    for (const std::string& l : lines) {
      spans::Span sp("handle_line", "serve.service");
      svc.handle_line(l);
    }
  });
  const double hit_us = hit_s / static_cast<double>(lines.size()) * 1e6;
  m.push_back({"serve.hit_us", hit_us, "us"});
  m.push_back({"serve.miss_ms", miss_s / misses * 1e3, "ms"});

  // wave1 + frame layer over the streamed waveforms: encode each into
  // 1 KiB-budget blocks inside CHUNK frames, then decode and compare.
  double codec_s = 0, samples = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].stream) continue;
    const Value reply = Value::parse(svc.handle_line(reqs[static_cast<std::size_t>(reqs[i].twin)].line(0)));
    const Value& res = *reply.find("result");
    std::vector<double> t, v;
    for (const Value& x : res.find("time_s")->as_array()) t.push_back(x.as_number());
    for (const Value& x : res.find("nodes")->as_array()[0].find("v")->as_array())
      v.push_back(x.as_number());
    serve::Wave1Decoder dec(1, true);
    codec_s += time_s([&] {
      spans::Span sp("wave1_round_trip", "serve.frame");
      std::string wire = "ivorystream1";
      serve::Wave1Encoder enc(1, true);
      for (std::size_t k = 0; k < t.size(); ++k) {
        enc.add_row(t[k], &v[k], 1);
        if (enc.full(1024)) serve::encode_frame(wire, serve::FrameType::Chunk, enc.encode_block());
      }
      if (!enc.empty()) serve::encode_frame(wire, serve::FrameType::Chunk, enc.encode_block());
      serve::FrameDecoder fd;
      fd.feed(wire);
      while (auto f = fd.next()) dec.decode_block(f->payload);
    });
    if (dec.time() != t || dec.column(0) != v)
      fail_check("stream.wave1_round_trip", "decoded waveform differs from the encoded one");
    samples += static_cast<double>(t.size());
  }
  m.push_back({"stream.wave1_ns_per_sample", codec_s / samples * 1e9, "ns"});

  // Durable store: put (with its fsyncs) and get of the stream's payloads.
  const std::string dir = fresh_dir(o, "probe-store");
  {
    serve::DurableStore store(serve::StoreOptions{dir, 256ull << 20});
    double put_s = 0, get_s = 0, n = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const serve::Request rq = serve::parse_request(Value::parse(lines[i]));
      if (store.get(rq.key, rq.canonical)) continue;  // repeated body
      put_s += time_s([&] {
        spans::Span sp("put", "serve.store");
        store.put(rq.key, rq.canonical, replies[i]);
      });
      get_s += time_s([&] {
        spans::Span sp("get", "serve.store");
        if (!store.get(rq.key, rq.canonical)) fail_check("store.get", "a put entry is missing");
      });
      ++n;
    }
    m.push_back({"store.put_ms", put_s / n * 1e3, "ms"});
    m.push_back({"store.get_us", get_s / n * 1e6, "us"});
  }
  std::filesystem::remove_all(dir);
  return hit_us;
}

// Fresh servers per kind until one serves both passes without a crash:
// with more than one pool thread, `ivory serve` aborts now and then (the
// pool race under Known faults in the README), so each crash is counted.
// After kServerAttempts crashes the probe falls back to kPoolThreads pool
// threads per process, which run every batch inline.
constexpr int kServerAttempts = 4;

struct ServerRun {
  PassResult cold, warm;
  Value stats_cold, stats_warm, metrics;
};

ServerRun serve_until_clean(const Options& o, const std::vector<ServeReq>& reqs,
                            unsigned workers, unsigned threads, const char* name,
                            std::size_t& crashes) {
  auto op = [](const std::string& socket, const char* op_name) {
    serve::BlockingClient c(socket);
    c.send_line(std::string("{\"op\":\"") + op_name + "\",\"id\":0}");
    return *checks::reply_ok(c.recv_line(), 0).find("result");
  };
  for (int attempt = 1; attempt <= kServerAttempts + 1; ++attempt) {
    const unsigned t = attempt <= kServerAttempts ? threads : kPoolThreads;
    const std::string dir = fresh_dir(o, name);
    ServerProc server(o, dir + "/s.sock", dir + "/cas", workers, t);
    ServerRun r;
    std::exception_ptr error;
    try {
      r.cold = run_pass(server.socket(), reqs, 0, o.nproc, "serve.server");
      r.stats_cold = op(server.socket(), "stats");
      r.warm = run_pass(server.socket(), reqs, kWarmIdOffset, o.nproc, "serve.server");
      r.stats_warm = op(server.socket(), "stats");
      r.metrics = op(server.socket(), "metrics");
    } catch (...) {
      error = std::current_exception();
    }
    const bool crashed = server.stop();
    std::filesystem::remove_all(dir);
    if (crashed) {
      ++crashes;
      log("%s: ivory serve (%u workers x %u threads) crashed, attempt %d", name, workers, t,
          attempt);
      continue;
    }
    if (error) std::rethrow_exception(error);
    if (t != threads)
      log("%s: measured at %u pool thread(s) after %d crashes at %u", name, t, kServerAttempts,
          threads);
    return r;
  }
  throw std::runtime_error(std::string(name) + ": ivory serve crashed at " +
                           std::to_string(kPoolThreads) + " pool thread(s) too");
}

// Server-side counters and client-observed latencies of one cold and one
// warm pass against a fresh single-process server (nproc pool threads) and
// a fresh two-worker fleet (nproc / 2 threads each).
void probe_servers(const Options& o, double hit_us, std::vector<Metric>& m) {
  const std::vector<ServeReq> reqs = serve_stream(o.seed);
  auto cache = [](const Value& stats, const char* key) {
    return stats.find("cache")->find(key)->as_number();
  };
  auto hist_mean = [](const Value& metrics, const char* name) {
    const Value* h = metrics.find("histograms")->find(name);
    const double n = h->find("count")->as_number();
    return n > 0 ? h->find("sum")->as_number() / n : 0.0;
  };
  std::size_t crashes = 0;
  const ServerRun single = serve_until_clean(o, reqs, 1, o.nproc, "probe-mixed", crashes);
  const ServerRun fleet =
      serve_until_clean(o, reqs, 2, std::max(1u, o.nproc / 2), "probe-fleet", crashes);
  for (const ServerRun* r : {&single, &fleet}) {
    check_pass(reqs, r->cold, 0);
    check_pass(reqs, r->warm, kWarmIdOffset);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      checks::bytes_equal(reply_body(r->warm.replies[i]), reply_body(r->cold.replies[i]),
                          "serve.warm_equals_cold");
  }
  // The fleet answers byte for byte like the single process.
  for (std::size_t i = 0; i < reqs.size(); ++i)
    checks::bytes_equal(fleet.cold.replies[i], single.cold.replies[i],
                        "serve.fleet_equals_single");

  const Value& s1 = single.stats_cold;
  const Value& s2 = single.stats_warm;
  const double h1 = cache(s1, "hits"), m1 = cache(s1, "misses");
  const double h2 = cache(s2, "hits"), m2 = cache(s2, "misses");
  m.push_back({"serve.cold_hit_ratio", h1 / (h1 + m1), "ratio"});
  m.push_back({"serve.warm_hit_ratio", (h2 - h1) / (h2 - h1 + m2 - m1), "ratio"});
  m.push_back({"serve.cold_evaluations", s1.find("n_evaluations")->as_number(), "count"});
  m.push_back({"serve.queue_wait_ms",
               hist_mean(single.metrics, "serve.scheduler.queue_wait_ms"), "ms"});
  m.push_back({"serve.eval_ms", hist_mean(single.metrics, "serve.eval_ms"), "ms"});
  m.push_back({"serve.encode_ms", hist_mean(single.metrics, "serve.encode_ms"), "ms"});
  m.push_back({"serve.cold_p99_ms", quantile(single.cold.latency_ms, 0.99), "ms"});
  m.push_back({"serve.warm_p99_ms", quantile(single.warm.latency_ms, 0.99), "ms"});
  const double warm_p50_us = median(single.warm.latency_ms) * 1e3;
  m.push_back({"server.overhead_us", warm_p50_us - hit_us, "us"});
  m.push_back({"fleet.overhead_us", median(fleet.warm.latency_ms) * 1e3 - warm_p50_us, "us"});
  m.push_back({"serve.server_crashes", static_cast<double>(crashes), "count"});
}

}  // namespace

std::vector<Metric> run_probes(const Options& o) {
  std::vector<Metric> m;
  probe_dse(o, m);
  probe_parallel(o, m);
  probe_spice(o, m);
  const double hit_us = probe_serve_inproc(o, m);
  probe_servers(o, hit_us, m);
  return m;
}

}  // namespace pb
