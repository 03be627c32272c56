// dse_study: each point changes one or two SystemParams fields of the one
// before; each runs the default funnel (screen, Pareto extraction, frontier
// simulation through the sim cache) and then the exhaustive explore().
#include "checks.hpp"
#include "core/report_json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

namespace core = ivory::core;
namespace tech = ivory::tech;

std::vector<core::SystemParams> dse_points(std::uint64_t seed, int n) {
  Rng rng(seed);
  const tech::Node nodes[] = {tech::Node::n45, tech::Node::n32, tech::Node::n22,
                              tech::Node::n14};
  const tech::CapKind caps[] = {tech::CapKind::MosCap, tech::CapKind::Mim,
                                tech::CapKind::DeepTrench};
  const tech::InductorKind inds[] = {tech::InductorKind::SurfaceMount,
                                     tech::InductorKind::IntegratedInterposer,
                                     tech::InductorKind::MagneticFilm};
  std::vector<core::SystemParams> out;
  core::SystemParams s;  // the paper's default system
  for (int i = 0; i < n; ++i) {
    const int changes = i == 0 ? 0 : rng.range(1, 2);
    int last = -1;
    for (int c = 0; c < changes; ++c) {
      int field = rng.range(0, 6);
      if (field == last) field = (field + 1) % 7;
      last = field;
      switch (field) {
        case 0: s.vin_v = rng.uniform(1.8, 5.0); break;
        case 1: s.vout_v = rng.uniform(0.7, 1.1); break;
        case 2: s.p_load_w = rng.uniform(5.0, 40.0); break;
        case 3: s.area_max_m2 = rng.uniform(10.0, 40.0) * 1e-6; break;
        case 4: s.node = nodes[rng.range(0, 3)]; break;
        case 5: s.cap_kind = caps[rng.range(0, 2)]; break;
        default: s.inductor = inds[rng.range(0, 2)]; break;
      }
    }
    out.push_back(s);
  }
  return out;
}

namespace {

constexpr int kPoints = 80;

std::string explore_json(const std::vector<core::DseResult>& v) {
  std::string s;
  for (const core::DseResult& r : v) s += core::to_json(r).write_canonical();
  return s;
}

}  // namespace

LoopResult run_dse(const Options& o, double seconds) {
  LoopResult out;
  const core::FunnelSpec spec;  // 874,752 candidates, frontier cap 32, simulation on
  std::vector<double> setup_s, funnel_ms, explore_ms;
  // Rates are per round (work over wall time of that round's calls), and
  // the median over rounds is reported: one slow stretch of a shared host
  // then moves one round, not the run.
  std::vector<double> funnel_rate, explore_rate;
  std::size_t mismatches = 0, hits = 0;
  std::vector<std::uint64_t> round1;  // digests of round 1's outputs

  Clock::time_point t_setup = process_start();
  Clock::time_point t_first{};
  for (;;) {
    if (o.trace) spans::enable(out.rounds % 2 == 1);
    // --- set-up: inputs, one untimed warm-up, cold sim cache
    const std::vector<core::SystemParams> pts = dse_points(o.seed, kPoints);
    {
      core::FunnelSpec warm = spec;
      warm.simulate = false;
      core::funnel_explore(core::SystemParams{}, warm);
      core::explore(core::SystemParams{});
    }
    core::funnel_sim_cache_clear();
    setup_s.push_back(seconds_since(t_setup));
    if (out.rounds == 0) t_first = Clock::now();

    const bool first = out.rounds == 0;
    double screened = 0, funnel_s = 0, evaluated = 0, explore_s = 0;
    std::size_t k = 0;
    for (const core::SystemParams& sys : pts) {
      Clock::time_point t0 = Clock::now();
      core::ParetoFront front;
      {
        spans::Span sp("funnel_explore", "core.pareto");
        front = core::funnel_explore(sys, spec);
      }
      const double fs = seconds_since(t0);
      ivory::SweepReport erep;
      t0 = Clock::now();
      std::vector<core::DseResult> ex;
      {
        spans::Span sp("explore", "core.optimizer");
        ex = core::explore(sys, core::OptTarget::Efficiency, &erep);
      }
      const double es = seconds_since(t0);
      out.ops += 2;
      funnel_ms.push_back(fs * 1e3);
      explore_ms.push_back(es * 1e3);
      funnel_s += fs;
      explore_s += es;
      screened += static_cast<double>(front.stats.n_screened);
      evaluated += static_cast<double>(erep.n_evaluated);
      hits += front.stats.sim_cache_hits;

      // --- checks, outside the timed calls
      const std::string fj = core::to_json(front).write_canonical();
      const std::string ej = explore_json(ex);
      if (first) {
        const std::string where = "point " + std::to_string(k);
        checks::frontier(front, spec.objectives);
        for (const core::ParetoPoint& p : front.points)
          checks::design_limits(p.design, sys, where + " frontier");
        for (const core::DseResult& r : ex)
          if (r.feasible) checks::design_limits(r, sys, where + " explore");
        mismatches += checks::screen_exact_mismatches(front);
        round1.push_back(digest(fj));
        round1.push_back(digest(ej));
      } else if (round1[2 * k] != digest(fj) || round1[2 * k + 1] != digest(ej)) {
        fail_check("dse.reproducible",
                   "point " + std::to_string(k) + " differs from round 1 (seed " +
                       std::to_string(o.seed) + ")");
      }
      ++k;
    }
    funnel_rate.push_back(screened / funnel_s);
    explore_rate.push_back(evaluated / explore_s);
    ++out.rounds;
    if (seconds_since(t_first) >= seconds && !(o.trace && out.rounds % 2 == 1)) break;
    t_setup = Clock::now();
  }

  if (o.trace) spans::enable(false);
  out.round_rate = funnel_rate;
  out.e2e = {{"setup_s", median(setup_s), "s"},
             {"peak_rss_mib", self_peak_rss_mib(), "MiB"},
             {"a_per_s", median(funnel_rate), "1/s"},
             {"a_p50_ms", median(funnel_ms), "ms"},
             {"b_per_s", median(explore_rate), "1/s"},
             {"b_p50_ms", median(explore_ms), "ms"}};
  out.samples = {{"funnel_explore", funnel_ms.size()}, {"explore", explore_ms.size()},
                 {"setup", setup_s.size()}};
  out.notes.push_back("screen/exact mismatches on round 1 frontiers: " +
                      std::to_string(mismatches) + " of " +
                      std::to_string(kPoints * spec.front_cap) + " points (ROADMAP item 1)");
  out.notes.push_back("sim cache hits per round: " + std::to_string(hits / out.rounds));
  return out;
}

}  // namespace pb
