// ivory — command-line front end to the Ivory IVR design-space exploration
// library.
//
//   ivory explore   --vin 3.3 --vout 1.0 --power 20 --area 20m  [--cap trench]
//   ivory pareto    --density 1.0 --front-cap 32 [--top-k 10 + explore flags]
//   ivory sc        --n 3 --m 1 --cfly 4u --gtot 15k --fsw 80meg --vin 3.3 --iload 20
//   ivory buck      --l 5n --fsw 100meg --phases 4 --whs 80m --wls 100m
//                   --cout 1u --vin 3.3 --vout 1.0 --iload 10
//   ivory topology  --n 3 --m 2 [--family ladder]
//   ivory dynamic   --benchmark CFD --dist 4
//   ivory pds       [--guard-off 110m --guard-ivr 25m]
//   ivory transient --netlist circuit.sp --tstop 10u --dt 1n [--record out]
//   ivory batch     [--repeat 2 --threads 4]  < requests.ndjson
//   ivory serve     --socket /tmp/ivory.sock [--threads 4]
//
// Numeric flags accept SPICE suffixes (4u, 15k, 80meg, 20m, ...). Areas are
// in mm^2 (e.g. --area 20).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/ivory.hpp"
#include "scenario/scenario.hpp"
#include "serve/batch.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/wave_codec.hpp"

#include <chrono>

using namespace ivory;

namespace {

/// Command-line misuse (as opposed to a failed evaluation): main prints the
/// message plus the usage text to stderr and exits 2.
class UsageError : public InvalidParameter {
 public:
  explicit UsageError(const std::string& what) : InvalidParameter(what) {}
};

class Args {
 public:
  Args(int argc, char** argv, int first) {
    if (first < argc && (argc - first) % 2 != 0)
      throw UsageError("every flag needs a value");
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw UsageError("flags must start with --: " + key);
      kv_[key.substr(2)] = argv[i + 1];
    }
  }

  double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : spice::parse_spice_value(it->second);
  }
  int integer(const std::string& key, int fallback) const {
    return static_cast<int>(num(key, fallback));
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  std::string require_str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw UsageError("missing required flag --" + key);
    return it->second;
  }
  bool has(const std::string& key) const { return kv_.count(key) != 0; }

 private:
  std::map<std::string, std::string> kv_;
};

tech::CapKind cap_kind_from(const std::string& s) {
  if (s == "mos") return tech::CapKind::MosCap;
  if (s == "mim") return tech::CapKind::Mim;
  if (s == "trench") return tech::CapKind::DeepTrench;
  throw InvalidParameter("unknown capacitor kind '" + s + "' (mos|mim|trench)");
}

/// `--metrics-out FILE`: dump the process metrics registry plus the trace
/// ring to FILE as one canonical JSON document once the command has run.
/// `{"metrics": <registry snapshot>, "trace": <chrome trace_event doc>}` —
/// the "trace" member can be pasted into chrome://tracing as-is.
void write_metrics_out(const Args& a) {
  const std::string path = a.str("metrics-out", "");
  if (path.empty()) return;
  json::Value::Object o;
  o.emplace_back("metrics", metrics::registry().to_json());
  o.emplace_back("trace", json::Value::parse(trace::to_chrome_json()));
  std::ofstream out(path);
  if (!out) throw InvalidParameter("cannot open --metrics-out file '" + path + "'");
  out << json::Value(std::move(o)).write_canonical() << "\n";
}

core::SystemParams system_from(const Args& a) {
  core::SystemParams sys;
  sys.vin_v = a.num("vin", sys.vin_v);
  sys.vout_v = a.num("vout", sys.vout_v);
  sys.p_load_w = a.num("power", sys.p_load_w);
  sys.area_max_m2 = a.num("area", sys.area_max_m2 * 1e6) * 1e-6;  // mm^2.
  sys.node = tech::node_from_string(a.str("node", "32"));
  sys.cap_kind = cap_kind_from(a.str("cap", "trench"));
  sys.max_distributed = a.integer("max-dist", sys.max_distributed);
  sys.ripple_max_v = a.num("ripple", sys.ripple_max_v);
  return sys;
}

int cmd_explore(const Args& a) {
  const core::SystemParams sys = system_from(a);
  std::printf("exploring: %.2f V -> %.2f V, %.1f W, %.1f mm^2, %s, %s caps\n\n", sys.vin_v,
              sys.vout_v, sys.p_load_w, sys.area_max_m2 * 1e6, tech::node_name(sys.node),
              tech::cap_kind_name(sys.cap_kind));
  TextTable t({"design", "dist", "eff (%)", "ripple (mV)", "f_sw (MHz)", "ilv", "area (mm^2)",
               "feasible"});
  SweepReport report;
  for (const core::DseResult& r : core::explore(sys, core::OptTarget::Efficiency, &report)) {
    t.add_row({r.label.empty() ? core::topology_name(r.topology) : r.label,
               std::to_string(r.n_distributed), TextTable::num(r.efficiency * 100, 3),
               TextTable::num(r.ripple_pp_v * 1e3, 3), TextTable::num(r.f_sw_hz / 1e6, 3),
               std::to_string(r.n_interleave), TextTable::num(r.area_m2 * 1e6, 3),
               r.feasible ? "yes" : "no"});
  }
  std::printf("%s", t.render().c_str());
  if (!report.skips.empty()) {
    std::printf("\n%zu of %zu candidates quarantined:\n", report.skips.size(),
                report.n_evaluated);
    for (const Diagnostics& d : report.skips)
      std::printf("  - %s\n", d.to_string().c_str());
  }
  write_metrics_out(a);
  return 0;
}

int cmd_pareto(const Args& a) {
  const core::SystemParams sys = system_from(a);
  core::FunnelSpec spec;
  const double density = a.num("density", 1.0);
  if (!(density > 0.0)) throw UsageError("--density must be > 0");
  spec = spec.scaled(density);
  spec.front_cap = static_cast<std::size_t>(a.integer("front-cap", static_cast<int>(spec.front_cap)));
  if (spec.front_cap < 1) throw UsageError("--front-cap must be >= 1");
  spec.simulate = a.integer("simulate", 1) != 0;
  const int top_k = a.integer("top-k", 0);
  if (a.has("top-k") && top_k < 1) throw UsageError("--top-k must be >= 1 (omit to show all)");

  std::printf("funnel: %.2f V -> %.2f V, %.1f W, %.1f mm^2, %s, %s caps (density %.2f)\n\n",
              sys.vin_v, sys.vout_v, sys.p_load_w, sys.area_max_m2 * 1e6,
              tech::node_name(sys.node), tech::cap_kind_name(sys.cap_kind), density);
  SweepReport report;
  const core::ParetoFront front = core::funnel_explore(sys, spec, &report);

  TextTable t({"#", "design", "dist", "ivr%", "eff (%)", "area (mm^2)", "ripple (mV)",
               "droop (mV)", "sim"});
  std::size_t shown = 0;
  for (const core::ParetoPoint& p : front.points) {
    if (top_k > 0 && shown == static_cast<std::size_t>(top_k)) break;
    ++shown;
    t.add_row({std::to_string(shown),
               p.design.label.empty() ? core::topology_name(p.design.topology) : p.design.label,
               std::to_string(p.design.n_distributed),
               std::to_string(static_cast<int>(p.ivr_load_frac * 100.0 + 0.5)),
               TextTable::num(p.screen.efficiency * 100, 3),
               TextTable::num(p.screen.area_m2 * 1e6, 3),
               TextTable::num(p.screen.ripple_pp_v * 1e3, 3),
               p.simulated ? TextTable::num(p.droop_pp_v * 1e3, 3) : "-",
               p.simulated ? (p.sim_cached ? "cached" : "yes") : "no"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("screened %llu candidates (%llu feasible) in %llu blocks -> frontier %llu "
              "(%.0f candidates/s; sim cache: %llu hit, %llu miss)\n",
              static_cast<unsigned long long>(front.stats.n_screened),
              static_cast<unsigned long long>(front.stats.n_feasible),
              static_cast<unsigned long long>(front.stats.n_blocks),
              static_cast<unsigned long long>(front.stats.frontier_size),
              front.stats.screen_s > 0.0
                  ? static_cast<double>(front.stats.n_screened) / front.stats.screen_s
                  : 0.0,
              static_cast<unsigned long long>(front.stats.sim_cache_hits),
              static_cast<unsigned long long>(front.stats.sim_cache_misses));
  if (!report.skips.empty()) {
    std::printf("\n%zu of %zu candidates quarantined:\n", report.skips.size(),
                report.n_evaluated);
    for (const Diagnostics& d : report.skips)
      std::printf("  - %s\n", d.to_string().c_str());
  }
  write_metrics_out(a);
  return 0;
}

int cmd_sc(const Args& a) {
  core::ScDesign d;
  d.node = tech::node_from_string(a.str("node", "32"));
  d.cap_kind = cap_kind_from(a.str("cap", "trench"));
  d.n = a.integer("n", 2);
  d.m = a.integer("m", 1);
  const std::string fam = a.str("family", "auto");
  d.family = fam == "ladder"           ? core::ScFamily::Ladder
             : fam == "series-parallel" ? core::ScFamily::SeriesParallel
                                        : core::ScFamily::Auto;
  d.c_fly_f = a.num("cfly", 1e-6);
  d.c_out_f = a.num("cout", 0.2e-6);
  d.g_tot_s = a.num("gtot", 5000.0);
  d.f_sw_hz = a.num("fsw", 80e6);
  d.n_interleave = a.integer("interleave", 8);
  const double vin = a.num("vin", 3.3);
  const double i_load = a.num("iload", 10.0);

  const core::ScAnalysis r = core::analyze_sc(d, vin, i_load);
  TextTable t({"metric", "value"});
  t.add_row({"ideal output", TextTable::num(r.vout_ideal_v, 4) + " V"});
  t.add_row({"actual output", TextTable::num(r.vout_v, 4) + " V"});
  t.add_row({"R_out (SSL/FSL)", TextTable::si(r.rout_ohm, "ohm") + " (" +
                                    TextTable::si(r.rssl_ohm, "ohm") + " / " +
                                    TextTable::si(r.rfsl_ohm, "ohm") + ")"});
  t.add_row({"efficiency", TextTable::num(r.efficiency * 100, 4) + " %"});
  t.add_row({"ripple p-p", TextTable::si(r.ripple_pp_v, "V")});
  t.add_row({"loss: conduction", TextTable::si(r.p_conduction_w, "W")});
  t.add_row({"loss: gate", TextTable::si(r.p_gate_w, "W")});
  t.add_row({"loss: bottom plate", TextTable::si(r.p_bottom_plate_w, "W")});
  t.add_row({"loss: leakage", TextTable::si(r.p_leakage_w, "W")});
  t.add_row({"loss: peripherals", TextTable::si(r.p_peripheral_w, "W")});
  t.add_row({"area", TextTable::num(r.area_m2 * 1e6, 4) + " mm^2"});
  std::printf("%s", t.render().c_str());

  const double vtarget = a.num("regulate", 0.0);
  if (vtarget > 0.0) {
    const core::ScRegulated reg = core::analyze_sc_regulated(d, vin, vtarget, i_load);
    if (reg.feasible)
      std::printf("\nregulated to %.3f V: eff %.2f %% at f_sw %.2f MHz\n", vtarget,
                  reg.analysis.efficiency * 100, reg.f_sw_used_hz / 1e6);
    else
      std::printf("\nregulation to %.3f V infeasible (past the cliff or FSL floor)\n", vtarget);
  }
  return 0;
}

int cmd_buck(const Args& a) {
  core::BuckDesign d;
  d.node = tech::node_from_string(a.str("node", "32"));
  d.cap_kind = cap_kind_from(a.str("cap", "trench"));
  const std::string ind = a.str("inductor", "interposer");
  d.inductor = ind == "smt"        ? tech::InductorKind::SurfaceMount
               : ind == "magnetic" ? tech::InductorKind::MagneticFilm
                                   : tech::InductorKind::IntegratedInterposer;
  d.l_per_phase_h = a.num("l", 5e-9);
  d.f_sw_hz = a.num("fsw", 100e6);
  d.n_phases = a.integer("phases", 4);
  d.w_high_m = a.num("whs", 0.08);
  d.w_low_m = a.num("wls", 0.10);
  d.c_out_f = a.num("cout", 1e-6);
  const core::BuckAnalysis r =
      core::analyze_buck(d, a.num("vin", 3.3), a.num("vout", 1.0), a.num("iload", 10.0));
  TextTable t({"metric", "value"});
  t.add_row({"duty", TextTable::num(r.duty, 4)});
  t.add_row({"L_eff / L0", TextTable::num(r.l_eff_h / d.l_per_phase_h, 4)});
  t.add_row({"efficiency", TextTable::num(r.efficiency * 100, 4) + " %"});
  t.add_row({"inductor ripple/phase", TextTable::si(r.i_ripple_phase_a, "A")});
  t.add_row({"output ripple p-p", TextTable::si(r.ripple_pp_v, "V")});
  t.add_row({"loss: conduction", TextTable::si(r.p_conduction_w, "W")});
  t.add_row({"loss: gate", TextTable::si(r.p_gate_w, "W")});
  t.add_row({"loss: overlap+coss+deadtime",
             TextTable::si(r.p_overlap_w + r.p_coss_w + r.p_deadtime_w, "W")});
  t.add_row({"die area", TextTable::num(r.area_die_m2 * 1e6, 4) + " mm^2"});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_topology(const Args& a) {
  const int n = a.integer("n", 2);
  const int m = a.integer("m", 1);
  const std::string fam = a.str("family", "auto");
  const core::ScFamily family = fam == "ladder"           ? core::ScFamily::Ladder
                                : fam == "series-parallel" ? core::ScFamily::SeriesParallel
                                : fam == "dickson"          ? core::ScFamily::Dickson
                                                           : core::ScFamily::Auto;
  const core::ScTopology topo = core::make_topology(n, m, family);
  const core::ChargeVectors cv = core::charge_vectors(topo);
  const std::vector<double> stress = core::switch_stress_ratios(topo);
  std::printf("%s: %zu caps, %zu switches, q_in = %.4f per unit output charge\n",
              topo.name.c_str(), topo.caps.size(), topo.switches.size(), cv.q_in);
  std::printf("R_SSL = %.4f / (C_tot f_sw)    R_FSL = %.4f / (G_tot D)\n",
              cv.sum_ac() * cv.sum_ac(), cv.sum_ar() * cv.sum_ar());
  TextTable t({"element", "a (charge mult.)", "stress (x Vin)"});
  for (std::size_t i = 0; i < topo.caps.size(); ++i)
    t.add_row({std::string(topo.caps[i].is_dc ? "C(dc) " : "C(fly) ") + std::to_string(i),
               TextTable::num(cv.a_cap[i], 4), TextTable::num(topo.caps[i].ideal_v_ratio, 4)});
  for (std::size_t i = 0; i < topo.switches.size(); ++i) {
    std::string sname = "S";
    sname += std::to_string(i);
    sname += topo.switches[i].phase == 0 ? " (A)" : " (B)";
    t.add_row({std::move(sname), TextTable::num(cv.a_switch[i], 4),
               TextTable::num(stress[i], 4)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_dynamic(const Args& a) {
  const core::SystemParams sys = system_from(a);
  const std::string bname = a.str("benchmark", "CFD");
  workload::Benchmark bench = workload::Benchmark::CFD;
  for (workload::Benchmark b : workload::kAllBenchmarks)
    if (bname == workload::benchmark_name(b)) bench = b;
  const int dist = a.integer("dist", 4);

  const core::DseResult ivr =
      core::optimize_topology(sys, core::IvrTopology::SwitchedCapacitor, dist);
  require(ivr.feasible, "no feasible IVR design for these constraints");
  std::printf("design: %s x%d distributed, %d-way interleaved, f_sw %.1f MHz\n",
              ivr.label.c_str(), dist, ivr.n_interleave, ivr.f_sw_hz / 1e6);

  const double dt = a.num("dt", 2e-9), dur = a.num("duration", 60e-6);
  const auto traces = workload::generate_gpu_traces(bench, 4, sys.p_load_w / 4.0, dur, dt);
  const workload::DigitalLoadModel load = workload::DigitalLoadModel::from_average_power(
      sys.p_load_w / 4.0, sys.vout_v, 1e9, 0.2);
  std::vector<double> i_dom(traces[0].watts.size(), 0.0);
  const int sm_per_dom = 4 / dist;
  for (int s = 0; s < sm_per_dom; ++s) {
    const auto i = workload::power_to_current(traces[static_cast<std::size_t>(s)], load,
                                              sys.vout_v);
    for (std::size_t k = 0; k < i_dom.size(); ++k) i_dom[k] += i[k];
  }
  const core::DynWaveform w =
      core::sc_combined_response(ivr.sc, sys.vin_v, sys.vout_v, i_dom, dt);
  const std::vector<double> tail(w.v.begin() + static_cast<long>(w.v.size() / 5), w.v.end());
  const BoxStats b = box_stats(tail);
  std::printf("%s supply voltage (one domain): mean %.4f V, p-p %.1f mV, "
              "[min %.4f | q1 %.4f | med %.4f | q3 %.4f | max %.4f]\n",
              bname.c_str(), mean(tail), peak_to_peak(tail) * 1e3, b.minimum, b.q1, b.median,
              b.q3, b.maximum);
  return 0;
}

int cmd_scenario(const Args& a) {
  const core::SystemParams sys = system_from(a);
  scenario::ScenarioSpec spec;
  const std::string preset = a.str("preset", "gpu-dvfs-step");
  spec.states = workload::residency_preset(preset);
  spec.name = preset;

  const std::string topo_name = a.str("topology", "sc");
  core::IvrTopology topo = core::IvrTopology::SwitchedCapacitor;
  if (topo_name == "sc") topo = core::IvrTopology::SwitchedCapacitor;
  else if (topo_name == "buck") topo = core::IvrTopology::Buck;
  else if (topo_name == "ldo") topo = core::IvrTopology::LinearRegulator;
  else if (topo_name == "dldo") topo = core::IvrTopology::DigitalLdo;
  else throw UsageError("unknown --topology '" + topo_name + "' (sc|buck|ldo|dldo)");

  const workload::Benchmark bench = workload::benchmark_from_string(a.str("benchmark", "CFD"));
  const std::string delivery = a.str("delivery", "ivr");
  if (delivery == "ivr" || delivery == "vrm") {
    scenario::DomainSpec dom;
    dom.name = "core";
    dom.power_frac = 1.0;
    dom.delivery = scenario::delivery_from_string(delivery);
    dom.benchmark = bench;
    spec.domains = {dom};
  } else if (delivery == "hybrid") {
    // FlexWatts-style split: the latency-critical core domain rides the
    // on-chip IVR, the uncore stays on the board VRM rail.
    scenario::DomainSpec core_dom, uncore_dom;
    core_dom.name = "core";
    core_dom.power_frac = 0.7;
    core_dom.delivery = scenario::Delivery::OnChipIvr;
    core_dom.benchmark = bench;
    uncore_dom.name = "uncore";
    uncore_dom.power_frac = 0.3;
    uncore_dom.delivery = scenario::Delivery::OffChipVrm;
    uncore_dom.benchmark = bench;
    spec.domains = {core_dom, uncore_dom};
  } else {
    throw UsageError("unknown --delivery '" + delivery + "' (ivr|vrm|hybrid)");
  }

  spec.f_nom_hz = a.num("f-nom", spec.f_nom_hz);
  spec.duration_s = a.num("duration", spec.duration_s);
  spec.dt_s = a.num("dt", spec.dt_s);
  spec.seed = static_cast<std::uint64_t>(a.integer("seed", 1));
  const int dist = a.integer("dist", 4);

  std::printf("scenario '%s': %zu states x %zu domains, %s IVR x%d, delivery %s\n\n",
              spec.name.c_str(), spec.states.size(), spec.domains.size(),
              core::topology_name(topo), dist, delivery.c_str());
  SweepReport report;
  const scenario::ScenarioReport res =
      scenario::evaluate_scenario(sys, topo, dist, spec, &report);
  if (res.has_ivr)
    std::printf("IVR design: %s, f_sw %.1f MHz, area %.3f mm^2\n",
                res.design.label.empty() ? core::topology_name(res.design.topology)
                                         : res.design.label.c_str(),
                res.design.f_sw_hz / 1e6, res.design.area_m2 * 1e6);
  TextTable t({"domain", "state", "delivery", "res (%)", "V", "f (GHz)", "I (A)", "eff (%)",
               "droop (mV)"});
  for (const scenario::StateEval& c : res.cells)
    t.add_row({c.domain, c.state, c.gated ? "gated" : scenario::delivery_name(c.delivery),
               TextTable::num(c.residency * 100, 3), TextTable::num(c.v_v, 3),
               TextTable::num(c.f_hz / 1e9, 3), TextTable::num(c.i_avg_a, 3),
               TextTable::num(c.efficiency * 100, 3),
               TextTable::num(c.droop_pp_v * 1e3, 3)});
  std::printf("%s", t.render().c_str());
  std::printf("\nresidency-weighted: eff %.2f %%, P_out %.2f W, P_in %.2f W, "
              "worst droop %.1f mV%s\n",
              res.weighted_efficiency * 100, res.p_out_avg_w, res.p_in_avg_w,
              res.worst_droop_pp_v * 1e3, res.complete ? "" : " (incomplete)");
  if (!report.skips.empty()) {
    std::printf("\n%zu of %zu cells quarantined:\n", report.skips.size(), report.n_evaluated);
    for (const Diagnostics& d : report.skips)
      std::printf("  - %s\n", d.to_string().c_str());
  }
  write_metrics_out(a);
  return 0;
}

int cmd_pds(const Args& a) {
  const core::SystemParams sys = system_from(a);
  const pdn::PdnParams pdn_params = pdn::PdnParams::gpuvolt_default();
  const double v_nom = a.num("vnom", 0.85);
  const double guard_off = a.num("guard-off", 0.110);
  const double guard_ivr = a.num("guard-ivr", 0.025);
  const int dist = a.integer("dist", 4);

  const core::DseResult ivr =
      core::optimize_topology(sys, core::IvrTopology::SwitchedCapacitor, dist);
  require(ivr.feasible, "no feasible IVR design for these constraints");
  // Quarantined evaluations: a failing composition prints its diagnostics
  // (code, site, candidate) instead of aborting with a bare what() string.
  const EvalOutcome<core::PdsBreakdown> off_out =
      core::try_evaluate_pds_offchip(sys, pdn_params, v_nom, guard_off);
  const EvalOutcome<core::PdsBreakdown> on_out =
      core::try_evaluate_pds_ivr(sys, pdn_params, ivr, v_nom, guard_ivr);
  if (!off_out.ok() || !on_out.ok()) {
    if (!off_out.ok())
      std::fprintf(stderr, "pds: %s\n", off_out.diagnostics().to_string().c_str());
    if (!on_out.ok())
      std::fprintf(stderr, "pds: %s\n", on_out.diagnostics().to_string().c_str());
    return 1;
  }
  const core::PdsBreakdown& off = off_out.value();
  const core::PdsBreakdown& on = on_out.value();

  TextTable t({"PDS", "guardband", "grid IR", "PDN IR", "IVR loss", "VRM loss", "total (W)",
               "eff (%)"});
  auto row = [&](const char* name, double guard, const core::PdsBreakdown& b) {
    t.add_row({name, TextTable::si(guard, "V"), TextTable::num(b.p_grid_ir_w, 3),
               TextTable::num(b.p_pdn_ir_w, 3), TextTable::num(b.p_ivr_loss_w, 3),
               TextTable::num(b.p_vrm_loss_w, 3), TextTable::num(b.p_total_w, 4),
               TextTable::num(b.efficiency * 100, 3)});
  };
  row("off-chip VRM", guard_off, off);
  row(("IVR x" + std::to_string(dist)).c_str(), guard_ivr, on);
  std::printf("%s", t.render().c_str());
  std::printf("improvement: %.1f points\n", (on.efficiency - off.efficiency) * 100.0);
  return 0;
}

int cmd_transient(const Args& a) {
  const std::string path = a.require_str("netlist");
  std::ifstream in(path);
  if (!in) throw InvalidParameter("cannot open netlist file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const spice::Circuit ckt = spice::parse_netlist(text.str());

  spice::TranSpec spec;
  spec.tstop = a.num("tstop", 0.0);
  if (!(spec.tstop > 0.0)) throw UsageError("missing or non-positive --tstop");
  spec.dt = a.num("dt", 0.0);
  if (!(spec.dt > 0.0)) throw UsageError("missing or non-positive --dt");
  const std::string method = a.str("method", "trap");
  if (method == "trap") spec.method = spice::Integrator::Trapezoidal;
  else if (method == "be") spec.method = spice::Integrator::BackwardEuler;
  else throw UsageError("unknown --method '" + method + "' (trap|be)");
  spec.use_ic = a.integer("uic", 0) != 0;
  spec.record_every = a.integer("record-every", 1);
  spec.adaptive = a.integer("adaptive", 0) != 0;
  spec.dv_max_v = a.num("dv-max", spec.dv_max_v);
  spec.dt_max = a.num("dt-max", spec.dt_max);
  spec.lu_cache_capacity = a.integer("lu-cache", spec.lu_cache_capacity);
  const std::string kernel = a.str("kernel", "auto");
  if (kernel == "auto") spec.kernel = sparse::Kernel::Auto;
  else if (kernel == "dense") spec.kernel = sparse::Kernel::Dense;
  else if (kernel == "banded") spec.kernel = sparse::Kernel::Banded;
  else throw UsageError("unknown --kernel '" + kernel + "' (auto|dense|banded)");
  const std::string record = a.str("record", "");
  for (std::size_t pos = 0; pos < record.size();) {
    const std::size_t comma = std::min(record.find(',', pos), record.size());
    if (comma > pos) spec.record_nodes.push_back(ckt.find_node(record.substr(pos, comma - pos)));
    pos = comma + 1;
  }

  if (a.str("encoding", "table") == "wave1") {
    // Raw wave1 frame stream on stdout (magic + HEADER/CHUNK/END), exactly
    // the bytes `ivory serve` would stream for this transient — pipe it to a
    // decoder or a file. The cost summary stays on stderr as usual.
    std::vector<std::string> names;
    std::vector<spice::NodeId> nodes = spec.record_nodes;
    if (nodes.empty())
      for (int n = 1; n < ckt.node_count(); ++n) nodes.push_back(n);
    for (const spice::NodeId n : nodes) names.push_back(ckt.node_name(n));
    serve::StreamEmitter em(
        [](std::string&& bytes) {
          return std::fwrite(bytes.data(), 1, bytes.size(), stdout) == bytes.size();
        },
        nullptr, 0.0, std::chrono::steady_clock::now());
    const int chunk = a.integer("chunk-bytes", 0);
    if (chunk > 0) em.set_chunk_bytes(static_cast<std::size_t>(chunk));
    serve::Wave1TransientStream ws(em, "null", std::move(names));
    spec.sample_sink = ws.sink();
    const spice::TranResult res = spice::transient(ckt, spec);
    ws.finish(res);
    std::fflush(stdout);
    std::fprintf(stderr, "ivory transient: streamed %llu rows in %llu chunks (wave1)\n",
                 static_cast<unsigned long long>(ws.rows()),
                 static_cast<unsigned long long>(em.chunks_emitted()));
    write_metrics_out(a);
    return 0;
  }

  const spice::TranResult res = spice::transient(ckt, spec);

  TextTable t({"node", "final (V)", "mean (V)", "min (V)", "max (V)"});
  for (std::size_t i = 0; i < res.nodes.size(); ++i) {
    const std::vector<double>& v = res.voltages[i];
    double lo = v.front(), hi = lo, sum = 0.0;
    for (double s : v) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      sum += s;
    }
    t.add_row({ckt.node_name(res.nodes[i]), TextTable::num(v.back(), 5),
               TextTable::num(sum / static_cast<double>(v.size()), 5), TextTable::num(lo, 5),
               TextTable::num(hi, 5)});
  }
  std::printf("%s", t.render().c_str());

  // Simulator cost on stderr (like the batch/serve summaries) so validation
  // runs expose the hot-path behaviour without a debugger.
  const double per_1k = res.steps_taken > 0
                            ? 1e3 * static_cast<double>(res.lu_factorizations) /
                                  static_cast<double>(res.steps_taken)
                            : 0.0;
  std::fprintf(stderr,
               "ivory transient: %llu steps, %llu LU factorizations (%.2f per 1k steps), "
               "%llu cache hits, %llu evictions, max resident %llu (capacity %d), "
               "kernel %s, %llu symbolic analyses, factor nnz %llu\n",
               static_cast<unsigned long long>(res.steps_taken),
               static_cast<unsigned long long>(res.lu_factorizations), per_1k,
               static_cast<unsigned long long>(res.lu_cache_hits),
               static_cast<unsigned long long>(res.lu_cache_evictions),
               static_cast<unsigned long long>(res.max_resident_factorizations),
               spec.lu_cache_capacity, res.kernel.c_str(),
               static_cast<unsigned long long>(res.symbolic_analyses),
               static_cast<unsigned long long>(res.factor_nnz));
  write_metrics_out(a);
  return 0;
}

int cmd_batch(const Args& a) {
  const int threads = a.integer("threads", 0);
  if (threads > 0) par::set_global_threads(static_cast<unsigned>(threads));
  serve::ServiceOptions sopt;
  sopt.cache_capacity = static_cast<std::size_t>(a.integer("cache", 4096));
  sopt.cache_dir = a.str("cache-dir", "");
  if (a.has("store-max-bytes"))
    sopt.store_max_bytes = static_cast<std::uint64_t>(a.num("store-max-bytes", 0));
  serve::Service service(sopt);
  serve::BatchOptions bopt;
  bopt.repeat = a.integer("repeat", 1);
  bopt.wave = static_cast<std::size_t>(a.integer("wave", 0));
  bopt.queue_capacity = static_cast<std::size_t>(a.integer("queue", 1024));
  const serve::BatchSummary summary = serve::run_batch(std::cin, std::cout, service, bopt);
  // Counters live on stderr so response bytes on stdout stay replayable.
  std::fprintf(stderr, "%s\n", serve::summary_json(summary).c_str());
  write_metrics_out(a);
  return 0;
}

int cmd_metrics(const Args& a) {
  // With --socket, snapshot a running server's registry over the serve
  // protocol; without, render this process's own (freshly started, hence
  // empty) registry — still useful as a format self-check.
  const std::string socket = a.str("socket", "");
  json::Value snapshot;
  if (!socket.empty()) {
    serve::BlockingClient client(socket);
    client.send_line("{\"id\":0,\"op\":\"metrics\"}");
    const json::Value root = json::Value::parse(client.recv_line());
    const json::Value* ok = root.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
      throw NumericalError("metrics: server returned an error envelope");
    const json::Value* result = root.find("result");
    require(result != nullptr, "metrics: response carries no result");
    snapshot = *result;
  } else {
    snapshot = metrics::registry().to_json();
  }
  const std::string format = a.str("format", "json");
  if (format == "prometheus")
    std::printf("%s", metrics::render_prometheus(snapshot).c_str());
  else if (format == "json")
    std::printf("%s\n", snapshot.write_canonical().c_str());
  else
    throw UsageError("unknown --format '" + format + "' (json|prometheus)");
  return 0;
}

/// Blocks SIGTERM/SIGINT in the calling thread (threads started afterwards
/// inherit the mask), then waits for one. Returns the signal number.
int wait_for_termination_signal() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  return sig;
}

void print_serve_stats(const serve::ServiceStats& s) {
  std::fprintf(stderr,
               "ivory serve: handled %llu requests (%llu evaluated, %llu errors), "
               "cache %llu/%llu hit/miss, %llu evictions",
               static_cast<unsigned long long>(s.n_requests),
               static_cast<unsigned long long>(s.n_evaluations),
               static_cast<unsigned long long>(s.n_errors),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses),
               static_cast<unsigned long long>(s.cache.evictions));
  if (s.durable)
    std::fprintf(stderr, ", store %llu hits / %llu puts (%llu warm-loaded, %llu quarantined)",
                 static_cast<unsigned long long>(s.store.hits),
                 static_cast<unsigned long long>(s.store.puts),
                 static_cast<unsigned long long>(s.warm_loaded),
                 static_cast<unsigned long long>(s.store.quarantined));
  std::fprintf(stderr, "\n");
}

int cmd_serve(const Args& a) {
  const int threads = a.integer("threads", 0);
  if (threads > 0) par::set_global_threads(static_cast<unsigned>(threads));
  const std::string socket = a.require_str("socket");
  const int workers = a.integer("workers", 1);
  const bool worker_mode = a.integer("worker", 0) != 0;

  if (workers > 1 && !worker_mode) {
    // Supervised fleet: N worker processes behind one acceptor/mux.
    serve::SupervisorOptions o;
    o.socket_path = socket;
    o.workers = workers;
    for (const char* flag : {"threads", "cache", "queue", "wave", "cache-dir",
                             "store-max-bytes"})
      if (a.has(flag)) {
        o.worker_args.push_back(std::string("--") + flag);
        o.worker_args.push_back(a.str(flag, ""));
      }
    o.backoff_initial_ms = a.integer("backoff-ms", o.backoff_initial_ms);
    o.flap_limit = a.integer("flap-limit", o.flap_limit);
    o.drain_deadline_ms = a.integer("drain-ms", o.drain_deadline_ms);
    o.health_interval_ms = a.integer("health-ms", o.health_interval_ms);
    serve::Supervisor fleet(std::move(o));
    // Block the termination signals before the fleet's threads exist so
    // SIGTERM always lands in this sigwait, never kills a pump thread.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    fleet.start();
    std::fprintf(stderr, "ivory serve: fleet of %d workers on %s (SIGTERM drains)\n",
                 workers, fleet.socket_path().c_str());
    int sig = 0;
    sigwait(&set, &sig);
    std::fprintf(stderr, "ivory serve: signal %d, draining fleet\n", sig);
    fleet.stop();
    const serve::FleetStats fs = fleet.stats();
    std::uint64_t restarts = 0, crashes = 0;
    for (const serve::WorkerStatus& w : fs.workers) {
      restarts += w.restarts;
      crashes += w.crashes;
    }
    std::fprintf(stderr,
                 "ivory serve: fleet handled %llu connections (%llu retryable errors, "
                 "%llu worker crashes, %llu restarts)\n",
                 static_cast<unsigned long long>(fs.connections),
                 static_cast<unsigned long long>(fs.retry_errors),
                 static_cast<unsigned long long>(crashes),
                 static_cast<unsigned long long>(restarts));
    return 0;
  }

  serve::ServerOptions o;
  o.socket_path = socket;
  o.service.cache_capacity = static_cast<std::size_t>(a.integer("cache", 4096));
  o.service.cache_dir = a.str("cache-dir", "");
  if (a.has("store-max-bytes"))
    o.service.store_max_bytes = static_cast<std::uint64_t>(a.num("store-max-bytes", 0));
  o.queue_capacity = static_cast<std::size_t>(a.integer("queue", 1024));
  o.wave = static_cast<std::size_t>(a.integer("wave", 0));
  serve::Server server(std::move(o));

  if (worker_mode) {
    // Fleet worker: die with the supervisor, drain gracefully on SIGTERM.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() == 1) return 0;  // supervisor already gone
    server.start();
    std::fprintf(stderr, "ivory serve: worker %d on %s\n", ::getpid(),
                 server.socket_path().c_str());
    wait_for_termination_signal();
    server.stop();  // finishes in-flight requests before returning
    print_serve_stats(server.stats());
    return 0;
  }

  server.start();
  std::fprintf(stderr, "ivory serve: listening on %s (EOF on stdin stops the server)\n",
               server.socket_path().c_str());
  char buf[256];
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
  }
  server.stop();
  print_serve_stats(server.stats());
  return 0;
}

int cmd_client(const Args& a) {
  // Minimal socket client for scripts and smoke tests: NDJSON requests on
  // stdin, one response line per request on stdout (strict ordering is the
  // transport contract). Exit 1 when the connection dies mid-stream.
  //
  // --stream json|wave1 adds the stream envelope fields to every request and
  // reassembles each frame stream back into the exact non-streaming response
  // line, so the output is byte-identical to --stream off against the same
  // server. --stream frames sends lines verbatim (the caller's JSON carries
  // its own stream fields) and prints a deterministic per-frame transcript —
  // the conformance surface the golden stream test diffs.
  const std::string mode = a.str("stream", "off");
  if (mode != "off" && mode != "json" && mode != "wave1" && mode != "frames")
    throw UsageError("unknown --stream '" + mode + "' (off|json|wave1|frames)");
  const int chunk_bytes = a.integer("chunk-bytes", 0);
  serve::BlockingClient client(a.require_str("socket"));
  const auto raw_read = [&client](char* out, std::size_t cap) {
    return client.recv_raw(out, cap);
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    if (mode == "json" || mode == "wave1") {
      json::Value root = json::Value::parse(line);
      root.set("stream", json::Value(true));
      root.set("encoding", json::Value(mode));
      if (chunk_bytes > 0)
        root.set("chunk_bytes", json::Value(static_cast<std::uint64_t>(chunk_bytes)));
      client.send_line(root.write());
      const serve::StreamAssembler asm_ = serve::read_stream(raw_read);
      std::printf("%s\n", asm_.decoded().c_str());
      std::fflush(stdout);
      continue;
    }

    client.send_line(line);
    const serve::TransportDirective d = serve::classify_line(line);
    if (mode == "frames" && d.is_stream) {
      const serve::StreamAssembler asm_ =
          serve::read_stream(raw_read, [](const serve::Frame& f) {
            if (f.type == serve::FrameType::Chunk)
              std::printf("CHUNK bytes=%zu fnv=%016llx\n", f.payload.size(),
                          static_cast<unsigned long long>(
                              serve::frame_checksum(f.type, f.payload)));
            else
              std::printf("%s %s\n", serve::frame_type_name(f.type), f.payload.c_str());
          });
      std::printf("%s\n", asm_.decoded().c_str());
    } else {
      std::printf("%s\n", client.recv_line().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "ivory — early-stage IVR design space exploration (DAC'17 reproduction)\n\n"
      "  ivory explore  [--vin V --vout V --power W --area mm2 --node N --cap K]\n"
      "  ivory pareto   [--density D --front-cap N --top-k N --simulate 0|1\n"
      "                  + explore flags]  multi-fidelity funnel: cheap-screen a\n"
      "                  dense grid, print the efficiency/area/ripple Pareto front\n"
      "  ivory sc       [--n N --m M --family F --cfly F --gtot S --fsw Hz --vin V\n"
      "                  --iload A --regulate V]\n"
      "  ivory buck     [--l H --fsw Hz --phases N --whs m --wls m --cout F\n"
      "                  --vin V --vout V --iload A --inductor smt|interposer|magnetic]\n"
      "  ivory topology [--n N --m M --family ladder|series-parallel]\n"
      "  ivory dynamic  [--benchmark B --dist N --duration s --dt s + explore flags]\n"
      "  ivory pds      [--guard-off V --guard-ivr V --dist N + explore flags]\n"
      "  ivory scenario [--preset P --topology sc|buck|ldo|dldo --delivery ivr|vrm|hybrid\n"
      "                  --benchmark B --dist N --duration s --dt s --seed N\n"
      "                  + explore flags]  residency-weighted power-state evaluation\n"
      "                  (presets: gpu-dvfs-step, active-idle, race-to-halt,\n"
      "                  server-diurnal)\n"
      "  ivory transient --netlist FILE --tstop s --dt s [--method trap|be --uic 1\n"
      "                  --record n1,n2 --record-every N --adaptive 1 --dv-max V\n"
      "                  --dt-max s --lu-cache N --kernel auto|dense|banded\n"
      "                  --encoding wave1 --chunk-bytes N]\n"
      "                  (cost counters on stderr; --encoding wave1 streams raw\n"
      "                  binary waveform frames on stdout)\n"
      "  ivory batch    [--repeat N --threads N --cache N --queue N --wave N\n"
      "                  --cache-dir PATH --store-max-bytes B]\n"
      "                  NDJSON requests on stdin -> NDJSON responses on stdout\n"
      "  ivory serve    --socket PATH [--workers N --threads N --cache N --queue N\n"
      "                  --wave N --cache-dir PATH --store-max-bytes B]\n"
      "                  same protocol over a Unix-domain socket; EOF on stdin stops\n"
      "                  --workers N>1 runs a supervised multi-process fleet\n"
      "                  (SIGTERM drains; tuning: --backoff-ms --flap-limit\n"
      "                  --drain-ms --health-ms); --cache-dir adds a durable\n"
      "                  content-addressed result store shared by all workers\n"
      "  ivory client   --socket PATH [--stream off|json|wave1|frames --chunk-bytes N]\n"
      "                  NDJSON on stdin -> response lines on stdout (for scripts);\n"
      "                  --stream json|wave1 negotiates framed streaming and decodes\n"
      "                  back to the identical lines, frames prints a transcript\n"
      "  ivory metrics  [--socket PATH --format json|prometheus]\n"
      "                  metrics-registry snapshot (of a running server with --socket)\n\n"
      "batch/transient/explore also take --metrics-out FILE to dump the process\n"
      "metrics registry + trace ring as canonical JSON after the run.\n\n"
      "Values accept SPICE suffixes: 4u, 15k, 80meg, 110m, ...\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  int (*handler)(const Args&) = nullptr;
  if (cmd == "explore") handler = cmd_explore;
  else if (cmd == "pareto") handler = cmd_pareto;
  else if (cmd == "sc") handler = cmd_sc;
  else if (cmd == "buck") handler = cmd_buck;
  else if (cmd == "topology") handler = cmd_topology;
  else if (cmd == "dynamic") handler = cmd_dynamic;
  else if (cmd == "pds") handler = cmd_pds;
  else if (cmd == "scenario") handler = cmd_scenario;
  else if (cmd == "transient") handler = cmd_transient;
  else if (cmd == "batch") handler = cmd_batch;
  else if (cmd == "serve") handler = cmd_serve;
  else if (cmd == "client") handler = cmd_client;
  else if (cmd == "metrics") handler = cmd_metrics;
  if (handler == nullptr) {
    std::fprintf(stderr, "ivory: unknown subcommand '%s'\n\n", cmd.c_str());
    usage();
    return 2;
  }
  try {
    const Args args(argc, argv, 2);
    return handler(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "ivory %s: %s\n\n", cmd.c_str(), e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivory %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
