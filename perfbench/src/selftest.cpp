// Self-test of the benchmark's correctness checks: each check must accept a
// known-good output of the program and reject a deliberately broken copy of
// it (a dominated frontier point, one perturbed grid voltage, one flipped
// reply byte, one wrong RC sample, ...). Exits 1 when any check misjudges.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "serve/service.hpp"
#include "serve_stream.hpp"
#include "spice/analysis.hpp"
#include "workloads.hpp"

namespace {

namespace core = ivory::core;
namespace spice = ivory::spice;
namespace pdn = ivory::pdn;
namespace checks = pb::checks;
using ivory::json::Value;

int g_cases = 0;
int g_wrong = 0;

void expect(bool accept, const std::string& what, const std::function<void()>& fn) {
  ++g_cases;
  std::string why;
  bool accepted = true;
  try {
    fn();
  } catch (const pb::CheckFailure& e) {
    accepted = false;
    why = e.what();
  }
  if (accepted == accept) {
    std::printf("ok    %-8s %s%s%s\n", accept ? "accepts" : "rejects", what.c_str(),
                why.empty() ? "" : "  -- ", why.c_str());
    return;
  }
  ++g_wrong;
  std::printf("WRONG %-8s %s%s%s\n", accepted ? "accepted" : "rejected", what.c_str(),
              why.empty() ? "" : "  -- ", why.c_str());
}

/// Replaces the n-th number (0-based) after `marker` in `text` with `value`.
std::string replace_number(const std::string& text, const std::string& marker, int n,
                           double value) {
  std::size_t p = text.find(marker);
  if (p == std::string::npos) throw std::runtime_error("selftest: marker " + marker + " missing");
  p += marker.size();
  for (;; ++p) {
    const char c = text[p];
    if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t e = p;
      while (e < text.size() && std::string("0123456789+-.eE").find(text[e]) != std::string::npos)
        ++e;
      if (n-- == 0) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return text.substr(0, p) + buf + text.substr(e);
      }
      p = e;
    }
  }
}

double number_after(const std::string& text, const std::string& marker) {
  return std::strtod(text.c_str() + text.find(marker) + marker.size(), nullptr);
}

void dse() {
  core::SystemParams sys;
  core::FunnelSpec spec = core::FunnelSpec{}.scaled(0.3);
  spec.simulate = false;
  const core::ParetoFront good = core::funnel_explore(sys, spec);
  expect(true, "a funnel frontier", [&] { checks::frontier(good, spec.objectives); });

  core::ParetoFront dominated = good;
  core::ParetoPoint q = good.points.front();
  q.index = good.points.back().index + 1;
  q.screen.efficiency = good.points.back().screen.efficiency * 0.5;  // worse, same area/ripple
  dominated.points.push_back(q);
  expect(false, "a frontier with a dominated point inserted",
         [&] { checks::frontier(dominated, spec.objectives); });

  core::ParetoFront swapped = good;
  std::swap(swapped.points[0], swapped.points[1]);
  expect(false, "a frontier out of efficiency order",
         [&] { checks::frontier(swapped, spec.objectives); });

  const std::vector<core::DseResult> ex = core::explore(sys);
  expect(true, "explore() results", [&] {
    for (const core::DseResult& r : ex)
      if (r.feasible) checks::design_limits(r, sys, "explore");
  });
  core::DseResult big = ex.front();
  big.feasible = true;
  big.area_m2 = 2.0 * sys.area_max_m2;
  big.topology = core::IvrTopology::LinearRegulator;
  expect(false, "a feasible design at twice the area budget",
         [&] { checks::design_limits(big, sys, "broken"); });
  core::DseResult eta = ex.front();
  eta.efficiency = 1.2;
  expect(false, "a design with efficiency 1.2", [&] { checks::design_limits(eta, sys, "broken"); });
}

void grid() {
  pdn::GridParams p;
  p.nx = p.ny = 16;
  spice::Circuit ckt;
  const pdn::GridNodes nodes = pdn::build_grid_netlist(ckt, p);
  spice::TranSpec spec;
  spec.dt = 0.1e-9;
  spec.tstop = 300 * spec.dt;
  spec.record_nodes = nodes.tiles;
  const spice::TranResult r = spice::transient(ckt, spec);
  expect(true, "16x16 grid samples", [&] { checks::grid_bounds(r.voltages, p.vdd_v); });
  auto high = r.voltages;
  high[37][150] = p.vdd_v + 1e-3;
  expect(false, "one grid voltage perturbed above vdd",
         [&] { checks::grid_bounds(high, p.vdd_v); });

  std::vector<double> last;
  for (const auto& v : r.voltages) last.push_back(v.back());
  const std::vector<double> dc = checks::grid_dc(p);
  expect(true, "settled grid vs DC solution",
         [&] { checks::close(last, dc, 1e-6 * p.vdd_v, "pdn.grid_dc_settled"); });
  last[100] -= 1e-4;
  expect(false, "one settled grid voltage perturbed by 0.1 mV",
         [&] { checks::close(last, dc, 1e-6 * p.vdd_v, "pdn.grid_dc_settled"); });
}

void converters() {
  const std::vector<pb::Converter> all = pb::converters(7);
  // One of each converter per integration method: trapezoidal, backward Euler.
  for (const std::size_t i : {0, 1, 4, 5}) {
    const pb::Converter& c = all[i];
    const spice::TranResult r = spice::transient(c.ckt, c.spec);
    const bool trap = c.spec.method == spice::Integrator::Trapezoidal;
    const std::string name = c.name + (trap ? " (trapezoidal)" : " (backward Euler)");
    const auto ref = checks::integrate(c.net, r.time, trap, c.spec.use_ic, c.net_probes);
    expect(true, name + " waveform vs reference integration", [&] {
      for (std::size_t k = 0; k < ref.size(); ++k)
        checks::close(r.voltages[k], ref[k], 1e-6, "pdn.converter_reference");
    });
    auto bad = r.voltages;
    bad.back()[bad.back().size() / 2] += 1e-5;
    expect(false, name + " waveform with one sample off by 10 uV", [&] {
      for (std::size_t k = 0; k < ref.size(); ++k)
        checks::close(bad[k], ref[k], 1e-6, "pdn.converter_reference");
    });
  }
}

void serve() {
  ivory::serve::Service svc{ivory::serve::ServiceOptions{}};
  const std::vector<pb::ServeReq> reqs = pb::serve_stream(3);
  bool seen[5] = {false, false, false, false, false};
  for (const pb::ServeReq& r : reqs) {
    if (r.kind == pb::ServeReq::Heavy || r.stream || seen[r.kind]) continue;
    seen[r.kind] = true;
    const std::string good = svc.handle_line(r.line(0));
    const std::string kind = r.body.find("op")->as_string() +
                             (r.kind == pb::ServeReq::Rc ? " (RC)" : "");
    std::function<void(const std::string&)> check = [&](const std::string& line) {
      const Value v = checks::reply_ok(line, r.id);
      switch (r.kind) {
        case pb::ServeReq::Sc: checks::sc_static(r.body, v); break;
        case pb::ServeReq::Buck: checks::buck_static(r.body, v); break;
        case pb::ServeReq::Ldo: checks::ldo_static(r.body, v); break;
        case pb::ServeReq::Dldo: checks::dldo_static(r.body, v); break;
        default: checks::rc_transient(r.rc, v); break;
      }
    };
    expect(true, kind + " reply", [&] { check(good); });

    std::string flipped = good;
    flipped[flipped.find("true")] = 'T';
    expect(false, kind + " reply with one byte flipped", [&] { check(flipped); });
    expect(false, kind + " reply under another id", [&] { checks::reply_ok(good, r.id + 1); });

    std::string broken;
    switch (r.kind) {
      case pb::ServeReq::Sc:
        broken = replace_number(good, "\"vout_ideal_v\":", 0,
                                number_after(good, "\"vout_ideal_v\":") * (1 + 1e-9));
        break;
      case pb::ServeReq::Buck:
        broken = replace_number(good, "\"duty\":", 0, 0.99 * number_after(good, "\"vout_v\":") /
                                                          number_after(good, "\"vin_v\":"));
        break;
      case pb::ServeReq::Ldo:
      case pb::ServeReq::Dldo:
        broken = replace_number(good, "\"efficiency\":", 0, 1.01 * number_after(good, "\"vout_v\":") /
                                                                number_after(good, "\"vin_v\":"));
        break;
      default:
        broken = replace_number(good, "\"v\":[", 7, number_after(good, "\"final_v\":") * 0.5);
        break;
    }
    expect(false, kind + " reply breaking its closed form / recurrence", [&] { check(broken); });
  }
  expect(true, "equal reply bytes", [] { checks::bytes_equal("{\"ok\":1}", "{\"ok\":1}", "bytes"); });
  expect(false, "reply bytes with one byte flipped",
         [] { checks::bytes_equal("{\"ok\":1}", "{\"ok\":2}", "bytes"); });
}

}  // namespace

int main() {
  try {
    dse();
    grid();
    converters();
    serve();
  } catch (const std::exception& e) {
    std::printf("selftest aborted: %s\n", e.what());
    return 1;
  }
  std::printf("selftest: %d cases, %d misjudged\n", g_cases, g_wrong);
  return g_wrong == 0 ? 0 : 1;
}
