// pdn_transient: seeded on-chip power-grid transients (banded systems of
// 10^3 - 10^4 unknowns, cost = factor + solve) beside switching-converter
// transients of ~20 unknowns (cost = per-step overhead on LU-cache hits).
#include <cmath>

#include "checks.hpp"
#include "spans.hpp"
#include "spice/analysis.hpp"
#include "spice/phase_clock.hpp"
#include "workloads.hpp"

namespace pb {

namespace spice = ivory::spice;
namespace pdn = ivory::pdn;

namespace {

constexpr double kGridDt = 0.1e-9;
constexpr int kConverterSteps = 20000;

Converter make_buck(Rng& rng) {
  Converter c;
  c.name = "buck";
  const double f_sw = 100e6, vin = 1.8, l = 4e-9, cout = 150e-9, ron = 5e-3, roff = 1e8,
               dcr = 1e-3;
  const double duty = rng.uniform(0.45, 0.60), i_load = rng.uniform(0.5, 1.5);
  const spice::PhaseClock clk(f_sw, 1, duty);
  spice::Circuit& k = c.ckt;
  const auto n_in = k.node("vin"), n_sw = k.node("sw"), n_lx = k.node("lx"), n_out = k.node("out");
  k.add_vsource("v1", n_in, spice::kGround, spice::Waveform::dc(vin));
  k.add_switch("s_hs", n_in, n_sw, ron, roff, clk.control(0), clk.edge_fn(0));
  k.add_switch("s_ls", n_sw, spice::kGround, ron, roff,
               [clk](double t) { return !clk.active(0, t); }, clk.edge_fn(0));
  k.add_inductor_ic("l1", n_sw, n_lx, l, i_load);
  k.add_resistor("r_dcr", n_lx, n_out, dcr);
  k.add_capacitor_ic("cout", n_out, spice::kGround, cout, duty * vin);
  k.add_isource("iload", n_out, spice::kGround, spice::Waveform::dc(i_load));
  c.spec.dt = 1.0 / (800.0 * f_sw);
  c.spec.tstop = kConverterSteps * c.spec.dt;
  c.spec.use_ic = true;
  c.spec.record_nodes = {n_out};

  // Reference: the high side conducts during the first `duty` of a period.
  const double period = 1.0 / f_sw;
  auto hs_on = [period, duty](double t) {
    const double frac = t / period - std::floor(t / period);
    return frac < duty;
  };
  checks::Net& n = c.net;
  const int r_in = n.node(vin), r_sw = n.node(), r_lx = n.node(), r_out = n.node();
  n.s.push_back({r_in, r_sw, ron, roff, hs_on});
  n.s.push_back({r_sw, 0, ron, roff, [hs_on](double t) { return !hs_on(t); }});
  n.l.push_back({r_sw, r_lx, l, i_load});
  n.r.push_back({r_lx, r_out, dcr});
  n.c.push_back({r_out, 0, cout, duty * vin});
  n.i.push_back({r_out, 0, i_load});
  c.net_probes = {r_out};
  return c;
}

Converter make_sc_pdn(Rng& rng) {
  Converter c;
  c.name = "sc_pdn";
  const double f_sw = 20e6, duty = 0.48, vs = 3.3, cf = 100e-9, ron = 0.01, roff = 1e8;
  const double r_load = rng.uniform(2.5, 4.5);
  const pdn::PdnParams pp = pdn::PdnParams::gpuvolt_default();
  spice::Circuit& k = c.ckt;
  const pdn::PdnNodes pn = pdn::build_pdn_netlist(k, pp, vs);
  const auto fly = k.node("fly"), out = k.node("out");
  const spice::PhaseClock clk(f_sw, 2, duty);
  k.add_switch("s1", pn.die, fly, ron, roff, clk.control(0), clk.edge_fn(0));
  k.add_switch("s2", fly, out, ron, roff, clk.control(1), clk.edge_fn(1));
  k.add_capacitor("cfly", fly, spice::kGround, cf);
  k.add_capacitor("cout", out, spice::kGround, cf);
  k.add_resistor("rl", out, spice::kGround, r_load);
  c.spec.dt = 1.0 / (100.0 * f_sw);
  c.spec.tstop = kConverterSteps * c.spec.dt;
  c.spec.record_nodes = {pn.die, out};

  // Reference ladder: per stage series R then L to the stage node, whose
  // decap (ESR + C) hangs to ground; then the on-die grid R, L and decap.
  checks::Net& n = c.net;
  int prev = n.node(vs);
  auto stage = [&](double r, double l, double cap, double esr) {
    const int mid = n.node(), node = n.node();
    n.r.push_back({prev, mid, r});
    n.l.push_back({mid, node, l, 0.0});
    if (cap > 0.0) {
      const int dk = n.node();
      n.r.push_back({node, dk, std::max(esr, 1e-9)});
      n.c.push_back({dk, 0, cap, 0.0});
    }
    prev = node;
  };
  stage(pp.board.r_ohm, pp.board.l_h, pp.board.decap_f, pp.board.decap_esr_ohm);
  stage(pp.package.r_ohm, pp.package.l_h, pp.package.decap_f, pp.package.decap_esr_ohm);
  stage(pp.c4.r_ohm, pp.c4.l_h, pp.c4.decap_f, pp.c4.decap_esr_ohm);
  stage(pp.grid_r_ohm, pp.grid_l_h, pp.ondie_decap_f, pp.ondie_decap_esr_ohm);
  const int die = prev, r_fly = n.node(), r_out = n.node();
  // Two phases, each active for `duty` of its half period.
  const double period = 1.0 / f_sw;
  auto phase = [period, duty](int k, double t) {
    const double frac = t / period - std::floor(t / period);
    return frac >= 0.5 * k && frac < 0.5 * k + duty;
  };
  n.s.push_back({die, r_fly, ron, roff, [phase](double t) { return phase(0, t); }});
  n.s.push_back({r_fly, r_out, ron, roff, [phase](double t) { return phase(1, t); }});
  n.c.push_back({r_fly, 0, cf, 0.0});
  n.c.push_back({r_out, 0, cf, 0.0});
  n.r.push_back({r_out, 0, r_load});
  c.net_probes = {die, r_out};
  return c;
}

}  // namespace

std::vector<Converter> converters(std::uint64_t seed) {
  Rng rng(seed ^ 0xC0117E57ull);
  std::vector<Converter> out;
  for (int k = 0; k < 4; ++k) {
    out.push_back(make_buck(rng));
    out.push_back(make_sc_pdn(rng));
  }
  // The first two variants of each keep TranSpec's default trapezoidal
  // rule, the last two use backward Euler.
  for (std::size_t k = 4; k < out.size(); ++k)
    out[k].spec.method = spice::Integrator::BackwardEuler;
  return out;
}

namespace {

std::uint64_t waveform_digest(const spice::TranResult& r) {
  std::string bytes(reinterpret_cast<const char*>(r.time.data()), r.time.size() * sizeof(double));
  for (const auto& v : r.voltages)
    bytes.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
  return digest(bytes);
}

// Recorded tiles: a lattice every 4 tiles each way, offset by 2 so that it
// falls between the bumps where the droop is deepest (1/16 of the grid).
// Recording all 10^4 tiles of the largest grid costs more than its solve.
std::vector<std::size_t> probe_lattice(const pdn::GridParams& p) {
  std::vector<std::size_t> out;
  for (int y = 2; y < p.ny; y += 4)
    for (int x = 2; x < p.nx; x += 4) out.push_back(static_cast<std::size_t>(y) * p.nx + x);
  return out;
}

std::vector<spice::NodeId> probe_nodes(const pdn::GridNodes& g,
                                       const std::vector<std::size_t>& tiles) {
  std::vector<spice::NodeId> out;
  for (const std::size_t i : tiles) out.push_back(g.tiles[i]);
  return out;
}

}  // namespace

std::vector<GridCase> grid_cases(std::uint64_t seed) {
  Rng rng(seed ^ 0x9121Dull);
  std::vector<GridCase> out;
  // Every size runs the short horizon; the long one stops at 64x64, where a
  // 300-step run already takes ~0.7 s (100x100 would take ~4 s per round).
  for (const int size : {32, 48, 64, 100})
    for (const int steps : {30, 300}) {
      if (size > 64 && steps > 30) continue;
      GridCase g;
      g.steps = steps;
      pdn::GridParams& p = g.params;
      p.nx = p.ny = size;
      p.vdd_v = rng.uniform(0.85, 1.0);
      p.seg_r_ohm = rng.uniform(0.03, 0.07);
      p.tile_cap_f = rng.uniform(30e-12, 70e-12);
      p.tile_load_a = rng.uniform(0.005, 0.015);
      p.step_load_a = rng.uniform(0.05, 0.15);
      p.bump_r_ohm = rng.uniform(0.01, 0.03);
      out.push_back(g);
    }
  return out;
}

LoopResult run_pdn(const Options& o, double seconds) {
  LoopResult out;
  // The latency medians are taken over one op kind each, so that they never
  // straddle two kinds of different cost: the 100x100 grid run (factor
  // dominated) and the SC-behind-PDN converter run. The step rates cover
  // every run of their class.
  std::vector<double> setup_s, grid_ms, conv_ms;
  // Step rates are per round, reported as the median over rounds.
  std::vector<double> grid_rate, conv_rate;
  std::size_t grid_runs = 0, grid_factorizations = 0;
  std::vector<std::uint64_t> round1;

  Clock::time_point t_setup = process_start();
  Clock::time_point t_first{};
  for (;;) {
    if (o.trace) spans::enable(out.rounds % 2 == 1);
    // --- set-up: inputs (circuits) and one untimed warm-up transient
    const std::vector<GridCase> cases = grid_cases(o.seed);
    std::vector<spice::Circuit> grids;
    std::vector<pdn::GridNodes> grid_nodes;
    std::vector<std::vector<std::size_t>> probe_tiles;
    for (const GridCase& g : cases) {
      grids.emplace_back();
      grid_nodes.push_back(pdn::build_grid_netlist(grids.back(), g.params));
      probe_tiles.push_back(probe_lattice(g.params));
    }
    std::vector<Converter> convs = converters(o.seed);
    {
      pdn::GridParams small;
      spice::TranSpec ws;
      ws.dt = kGridDt;
      ws.tstop = 10 * kGridDt;
      spice::transient(pdn::make_grid_circuit(small), ws);
    }
    setup_s.push_back(seconds_since(t_setup));
    if (out.rounds == 0) t_first = Clock::now();
    const bool first = out.rounds == 0;
    double grid_steps = 0, grid_s = 0, conv_steps = 0, conv_s = 0;
    std::size_t k = 0;

    for (std::size_t g = 0; g < cases.size(); ++g, ++k) {
      spice::TranSpec spec;
      spec.dt = kGridDt;
      spec.tstop = cases[g].steps * kGridDt;
      spec.record_nodes = probe_nodes(grid_nodes[g], probe_tiles[g]);
      const Clock::time_point t0 = Clock::now();
      spice::TranResult r;
      {
        spans::Span sp("transient.grid", "spice");
        r = spice::transient(grids[g], spec);
      }
      const double s = seconds_since(t0);
      ++out.ops;
      if (cases[g].params.nx == 100) grid_ms.push_back(s * 1e3);
      grid_s += s;
      grid_steps += static_cast<double>(r.steps_taken);
      ++grid_runs;
      grid_factorizations += r.lu_factorizations;
      if (first) {
        checks::grid_bounds(r.voltages, cases[g].params.vdd_v);
        if (cases[g].steps >= 300) {
          const std::vector<double> dc = checks::grid_dc(cases[g].params);
          std::vector<double> last, want;
          for (std::size_t i = 0; i < r.voltages.size(); ++i) {
            last.push_back(r.voltages[i].back());
            want.push_back(dc[probe_tiles[g][i]]);
          }
          checks::close(last, want, 1e-6 * cases[g].params.vdd_v, "pdn.grid_dc_settled");
        }
        round1.push_back(waveform_digest(r));
      } else if (round1[k] != waveform_digest(r)) {
        fail_check("pdn.reproducible", "grid run " + std::to_string(g) + " differs from round 1");
      }
    }

    for (Converter& c : convs) {
      const Clock::time_point t0 = Clock::now();
      spice::TranResult r;
      {
        spans::Span sp("transient.converter", "spice");
        r = spice::transient(c.ckt, c.spec);
      }
      const double s = seconds_since(t0);
      ++out.ops;
      if (c.name == "sc_pdn") conv_ms.push_back(s * 1e3);
      conv_s += s;
      conv_steps += static_cast<double>(r.steps_taken);
      if (first) {
        const bool trap = c.spec.method == spice::Integrator::Trapezoidal;
        const auto ref = checks::integrate(c.net, r.time, trap, c.spec.use_ic, c.net_probes);
        for (std::size_t p = 0; p < ref.size(); ++p)
          checks::close(r.voltages[p], ref[p], 1e-6, "pdn.converter_reference_" + c.name);
        round1.push_back(waveform_digest(r));
      } else if (round1[k] != waveform_digest(r)) {
        fail_check("pdn.reproducible", c.name + " run differs from round 1");
      }
      ++k;
    }
    grid_rate.push_back(grid_steps / grid_s);
    conv_rate.push_back(conv_steps / conv_s);
    ++out.rounds;
    if (seconds_since(t_first) >= seconds && !(o.trace && out.rounds % 2 == 1)) break;
    t_setup = Clock::now();
  }

  if (o.trace) spans::enable(false);
  out.round_rate = grid_rate;
  out.e2e = {{"setup_s", median(setup_s), "s"},
             {"peak_rss_mib", self_peak_rss_mib(), "MiB"},
             {"a_per_s", median(grid_rate), "1/s"},
             {"a_p50_ms", median(grid_ms), "ms"},
             {"b_per_s", median(conv_rate), "1/s"},
             {"b_p50_ms", median(conv_ms), "ms"}};
  out.samples = {{"grid_100x100_runs", grid_ms.size()}, {"sc_pdn_runs", conv_ms.size()},
                 {"setup", setup_s.size()}};
  out.notes.push_back("grid LU factorizations: " + std::to_string(grid_factorizations) +
                      " over " + std::to_string(grid_runs) +
                      " linear time-invariant trapezoidal runs (ROADMAP item 3: two per run, the "
                      "backward-Euler start step and the trapezoidal steps, are enough)");
  return out;
}

}  // namespace pb
