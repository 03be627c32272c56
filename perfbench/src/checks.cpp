#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pb::checks {

using ivory::json::Value;
namespace core = ivory::core;

namespace {

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

bool rel_differs(double a, double b, double rel) {
  return std::fabs(a - b) > rel * std::max(std::fabs(a), std::fabs(b));
}

// Dense Gaussian elimination with partial pivoting; `a` is row-major n x n.
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(a[i * n + k]) > std::fabs(a[p * n + k])) p = i;
    if (a[p * n + k] == 0.0) fail_check("reference.singular", "reference matrix is singular");
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
      std::swap(b[k], b[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      if (f == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t k = n; k-- > 0;) {
    double s = b[k];
    for (std::size_t j = k + 1; j < n; ++j) s -= a[k * n + j] * x[j];
    x[k] = s / a[k * n + k];
  }
  return x;
}

const Value& at(const Value& v, const char* key, const std::string& check) {
  const Value* p = v.find(key);
  if (p == nullptr) fail_check(check, std::string("reply lacks '") + key + "'");
  return *p;
}

double num(const Value& v, const char* key, const std::string& check) {
  const Value& x = at(v, key, check);
  if (!x.is_number()) fail_check(check, std::string("'") + key + "' is not a number");
  return x.as_number();
}

const Value& analysis(const Value& reply, const std::string& check) {
  return at(at(reply, "result", check), "analysis", check);
}

}  // namespace

// --- dse_study ---------------------------------------------------------------

void frontier(const core::ParetoFront& f, const core::FunnelObjectives& obj) {
  const auto& p = f.points;
  if (p.empty()) fail_check("dse.frontier_nondominated", "empty frontier");
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (i == j) continue;
      const core::ScreenMetrics& a = p[i].screen;
      const core::ScreenMetrics& b = p[j].screen;
      const bool no_worse = (!obj.efficiency || a.efficiency >= b.efficiency) &&
                            (!obj.area || a.area_m2 <= b.area_m2) &&
                            (!obj.ripple || a.ripple_pp_v <= b.ripple_pp_v);
      const bool better = (obj.efficiency && a.efficiency > b.efficiency) ||
                          (obj.area && a.area_m2 < b.area_m2) ||
                          (obj.ripple && a.ripple_pp_v < b.ripple_pp_v);
      if (no_worse && better)
        fail_check("dse.frontier_nondominated",
                   "candidate " + std::to_string(p[i].index) + " dominates candidate " +
                       std::to_string(p[j].index));
      if (no_worse && i < j && p[i].index != p[j].index &&
          a.efficiency == b.efficiency && a.area_m2 == b.area_m2 &&
          a.ripple_pp_v == b.ripple_pp_v)
        fail_check("dse.frontier_nondominated",
                   "candidates " + std::to_string(p[i].index) + " and " +
                       std::to_string(p[j].index) + " are duplicates");
    }
  for (std::size_t i = 1; i < p.size(); ++i) {
    const double e0 = p[i - 1].screen.efficiency, e1 = p[i].screen.efficiency;
    if (e1 > e0 || (e1 == e0 && p[i].index <= p[i - 1].index))
      fail_check("dse.frontier_order",
                 "point " + std::to_string(i) + " (candidate " + std::to_string(p[i].index) +
                     ") breaks the efficiency-descending, index-ascending order");
  }
}

void design_limits(const core::DseResult& d, const core::SystemParams& sys,
                   const std::string& where) {
  const std::string check = "dse.design_limits";
  if (!(d.efficiency > 0.0 && d.efficiency < 1.0))
    fail_check(check, where + " " + d.label + fmt(": efficiency %.17g not in (0, 1)", d.efficiency));
  if (!d.feasible) return;
  // The optimizer's feasibility slack per topology: SC ripple 5 % and area
  // 2 %, LDO/DLDO area 5 %; the buck limit applies to its die area, which
  // DseResult does not carry, so only its ripple is checked.
  const bool sc = d.topology == core::IvrTopology::SwitchedCapacitor;
  const bool buck = d.topology == core::IvrTopology::Buck;
  const double fp = 1.0 + 1e-9;
  const double ripple_max = sys.ripple_max_v * (sc ? 1.05 : 1.0) * fp;
  const double area_max = sys.area_max_m2 * (sc ? 1.02 : 1.05) * fp;
  if (!buck && !(d.area_m2 <= area_max))
    fail_check(check, where + " " + d.label +
                          fmt(": area %.6g m2 exceeds the %.6g m2 limit", d.area_m2, area_max));
  if (!(d.ripple_pp_v <= ripple_max))
    fail_check(check, where + " " + d.label +
                          fmt(": ripple %.6g V exceeds the %.6g V limit", d.ripple_pp_v,
                              ripple_max));
}

std::size_t screen_exact_mismatches(const core::ParetoFront& f, double rel) {
  std::size_t n = 0;
  for (const core::ParetoPoint& p : f.points)
    if (rel_differs(p.screen.efficiency, p.design.efficiency, rel) ||
        rel_differs(p.screen.area_m2, p.design.area_m2, rel) ||
        rel_differs(p.screen.ripple_pp_v, p.design.ripple_pp_v, rel))
      ++n;
  return n;
}

// --- pdn_transient -------------------------------------------------------------

void grid_bounds(const std::vector<std::vector<double>>& tiles, double vdd) {
  for (std::size_t i = 0; i < tiles.size(); ++i)
    for (std::size_t k = 0; k < tiles[i].size(); ++k) {
      const double v = tiles[i][k];
      if (!(v >= 0.0 && v <= vdd))
        fail_check("pdn.grid_bounds", "tile " + std::to_string(i) + " sample " +
                                          std::to_string(k) +
                                          fmt(": %.17g V outside [0, %.6g] V", v, vdd));
    }
}

std::vector<double> grid_dc(const ivory::pdn::GridParams& p) {
  const int nx = p.nx, ny = p.ny;
  const std::size_t n = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  const double gs = 1.0 / p.seg_r_ohm, gb = 1.0 / p.bump_r_ohm;
  std::vector<double> diag(n, 0.0), b(n, 0.0);
  const int x0 = nx / 4, x1 = nx - nx / 4, y0 = ny / 4, y1 = ny - ny / 4;
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      const std::size_t i = static_cast<std::size_t>(y) * nx + x;
      diag[i] = gs * ((x > 0) + (x + 1 < nx) + (y > 0) + (y + 1 < ny));
      b[i] = -p.tile_load_a;
      if (x >= x0 && x < x1 && y >= y0 && y < y1) b[i] -= p.step_load_a;
      if (x % p.bump_pitch == 0 && y % p.bump_pitch == 0) {
        diag[i] += gb;
        b[i] += gb * p.vdd_v;
      }
    }
  auto apply = [&](const std::vector<double>& v, std::vector<double>& out) {
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        const std::size_t i = static_cast<std::size_t>(y) * nx + x;
        double s = diag[i] * v[i];
        if (x > 0) s -= gs * v[i - 1];
        if (x + 1 < nx) s -= gs * v[i + 1];
        if (y > 0) s -= gs * v[i - nx];
        if (y + 1 < ny) s -= gs * v[i + nx];
        out[i] = s;
      }
  };
  // Jacobi-preconditioned conjugate gradients from v = vdd.
  std::vector<double> v(n, p.vdd_v), r(n), z(n), d(n), q(n);
  apply(v, q);
  double bnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - q[i];
    z[i] = r[i] / diag[i];
    bnorm += b[i] * b[i];
  }
  d = z;
  double rz = 0.0;
  for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];
  for (int it = 0; it < 20000; ++it) {
    double rr = 0.0;
    for (std::size_t i = 0; i < n; ++i) rr += r[i] * r[i];
    if (rr <= 1e-28 * bnorm) break;
    apply(d, q);
    double dq = 0.0;
    for (std::size_t i = 0; i < n; ++i) dq += d[i] * q[i];
    const double alpha = rz / dq;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] += alpha * d[i];
      r[i] -= alpha * q[i];
      z[i] = r[i] / diag[i];
    }
    double rz_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) d[i] = z[i] + beta * d[i];
  }
  return v;
}

void close(const std::vector<double>& got, const std::vector<double>& want, double tol,
           const std::string& check) {
  if (got.size() != want.size())
    fail_check(check, "length " + std::to_string(got.size()) + ", expected " +
                          std::to_string(want.size()));
  double worst = -1.0;
  std::size_t at_i = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) continue;
    const double d = std::fabs(got[i] - want[i]);
    if (!(d <= worst)) {
      worst = d;
      at_i = i;
    }
  }
  if (!(worst <= tol))
    fail_check(check, "index " + std::to_string(at_i) +
                          fmt(": %.17g vs reference %.17g (tolerance %.3g)", got[at_i],
                              want[at_i], tol));
}

int Net::node() {
  fixed.push_back(std::numeric_limits<double>::quiet_NaN());
  return static_cast<int>(fixed.size()) - 1;
}

int Net::node(double volts) {
  fixed.push_back(volts);
  return static_cast<int>(fixed.size()) - 1;
}

std::vector<std::vector<double>> integrate(const Net& net, const std::vector<double>& times,
                                           bool trapezoidal, bool use_ic,
                                           const std::vector<int>& probes) {
  // Unknowns: the free node voltages, then one current per inductor.
  const int nn = static_cast<int>(net.fixed.size());
  std::vector<int> row(static_cast<std::size_t>(nn), -1);
  int n = 0;
  for (int k = 0; k < nn; ++k)
    if (std::isnan(net.fixed[static_cast<std::size_t>(k)])) row[static_cast<std::size_t>(k)] = n++;
  const int n_nodes = n;
  n += static_cast<int>(net.l.size());
  const std::size_t N = static_cast<std::size_t>(n);

  std::vector<double> v(static_cast<std::size_t>(nn), 0.0);  // node voltages
  for (int k = 0; k < nn; ++k)
    if (row[static_cast<std::size_t>(k)] < 0) v[static_cast<std::size_t>(k)] = net.fixed[static_cast<std::size_t>(k)];
  std::vector<double> cap_v(net.c.size()), cap_i(net.c.size(), 0.0);
  std::vector<double> ind_i(net.l.size()), ind_v(net.l.size(), 0.0);
  std::vector<char> closed(net.s.size());
  for (std::size_t k = 0; k < net.s.size(); ++k) closed[k] = net.s[k].closed(0.0);

  // One linear solve. dc: capacitors open, inductors shorted; otherwise the
  // companion models of a step of length h (be: backward Euler).
  auto solve = [&](bool dc, double h, bool be) {
    std::vector<double> a(N * N, 0.0), rhs(N, 0.0);
    auto g_between = [&](int p, int q, double g) {
      const int rp = row[static_cast<std::size_t>(p)], rq = row[static_cast<std::size_t>(q)];
      if (rp >= 0) {
        a[static_cast<std::size_t>(rp) * N + rp] += g;
        if (rq >= 0) a[static_cast<std::size_t>(rp) * N + rq] -= g;
        else rhs[static_cast<std::size_t>(rp)] += g * v[static_cast<std::size_t>(q)];
      }
      if (rq >= 0) {
        a[static_cast<std::size_t>(rq) * N + rq] += g;
        if (rp >= 0) a[static_cast<std::size_t>(rq) * N + rp] -= g;
        else rhs[static_cast<std::size_t>(rq)] += g * v[static_cast<std::size_t>(p)];
      }
    };
    auto inject = [&](int p, double amps) {  // current into node p
      const int rp = row[static_cast<std::size_t>(p)];
      if (rp >= 0) rhs[static_cast<std::size_t>(rp)] += amps;
    };
    for (const Net::R& e : net.r) g_between(e.a, e.b, 1.0 / e.ohm);
    for (std::size_t k = 0; k < net.s.size(); ++k)
      g_between(net.s[k].a, net.s[k].b, 1.0 / (closed[k] ? net.s[k].ron : net.s[k].roff));
    for (const Net::I& e : net.i) {
      inject(e.a, -e.amps);
      inject(e.b, e.amps);
    }
    if (!dc)
      for (std::size_t k = 0; k < net.c.size(); ++k) {
        const double gc = (be ? 1.0 : 2.0) * net.c[k].f / h;
        g_between(net.c[k].a, net.c[k].b, gc);
        const double ieq = be ? gc * cap_v[k] : gc * cap_v[k] + cap_i[k];
        inject(net.c[k].a, ieq);
        inject(net.c[k].b, -ieq);
      }
    for (std::size_t k = 0; k < net.l.size(); ++k) {
      const std::size_t m = static_cast<std::size_t>(n_nodes) + k;
      const Net::L& e = net.l[k];
      const int ra = row[static_cast<std::size_t>(e.a)], rb = row[static_cast<std::size_t>(e.b)];
      // KCL: the branch current leaves a and enters b.
      if (ra >= 0) a[static_cast<std::size_t>(ra) * N + m] += 1.0;
      if (rb >= 0) a[static_cast<std::size_t>(rb) * N + m] -= 1.0;
      // Branch: v_a - v_b - z * i = -z * i_prev (- v_prev for trapezoidal).
      double r = 0.0;
      if (ra >= 0) a[m * N + static_cast<std::size_t>(ra)] += 1.0;
      else r -= v[static_cast<std::size_t>(e.a)];
      if (rb >= 0) a[m * N + static_cast<std::size_t>(rb)] -= 1.0;
      else r += v[static_cast<std::size_t>(e.b)];
      if (!dc) {
        const double z = (be ? 1.0 : 2.0) * e.h / h;
        a[m * N + m] -= z;
        r -= z * ind_i[k];
        if (!be) r -= ind_v[k];
      }
      rhs[m] = r;
    }
    const std::vector<double> x = solve_dense(std::move(a), std::move(rhs));
    for (int k = 0; k < nn; ++k)
      if (row[static_cast<std::size_t>(k)] >= 0)
        v[static_cast<std::size_t>(k)] = x[static_cast<std::size_t>(row[static_cast<std::size_t>(k)])];
    return x;
  };

  if (use_ic) {
    for (std::size_t k = 0; k < net.c.size(); ++k) cap_v[k] = net.c[k].ic;
    for (std::size_t k = 0; k < net.l.size(); ++k) ind_i[k] = net.l[k].ic;
  } else {
    const std::vector<double> x = solve(true, 0.0, true);
    for (std::size_t k = 0; k < net.c.size(); ++k)
      cap_v[k] = v[static_cast<std::size_t>(net.c[k].a)] - v[static_cast<std::size_t>(net.c[k].b)];
    for (std::size_t k = 0; k < net.l.size(); ++k)
      ind_i[k] = x[static_cast<std::size_t>(n_nodes) + k];
  }

  std::vector<std::vector<double>> out(probes.size(), std::vector<double>(times.size()));
  auto record = [&](std::size_t t_idx, bool valid) {
    for (std::size_t p = 0; p < probes.size(); ++p)
      out[p][t_idx] = valid ? v[static_cast<std::size_t>(probes[p])]
                            : std::numeric_limits<double>::quiet_NaN();
  };
  record(0, !use_ic);
  for (std::size_t t = 1; t < times.size(); ++t) {
    const double h = times[t] - times[t - 1];
    bool changed = t == 1;
    for (std::size_t k = 0; k < net.s.size(); ++k) {
      const char now = net.s[k].closed(times[t - 1] + 0.5 * h);
      changed = changed || now != closed[k];
      closed[k] = now;
    }
    const bool be = !trapezoidal || changed;
    const std::vector<double> x = solve(false, h, be);
    for (std::size_t k = 0; k < net.c.size(); ++k) {
      const double vab =
          v[static_cast<std::size_t>(net.c[k].a)] - v[static_cast<std::size_t>(net.c[k].b)];
      const double gc = (be ? 1.0 : 2.0) * net.c[k].f / h;
      cap_i[k] = be ? gc * (vab - cap_v[k]) : gc * (vab - cap_v[k]) - cap_i[k];
      cap_v[k] = vab;
    }
    for (std::size_t k = 0; k < net.l.size(); ++k) {
      ind_i[k] = x[static_cast<std::size_t>(n_nodes) + k];
      ind_v[k] = v[static_cast<std::size_t>(net.l[k].a)] - v[static_cast<std::size_t>(net.l[k].b)];
    }
    record(t, true);
  }
  return out;
}

// --- serve ---------------------------------------------------------------------

Value reply_ok(const std::string& line, double id) {
  Value v;
  try {
    v = Value::parse(line);
  } catch (const std::exception& e) {
    fail_check("serve.reply_ok", std::string("unparsable reply: ") + e.what());
  }
  const Value* ok = v.find("ok");
  const Value* rid = v.find("id");
  if (rid == nullptr || !rid->is_number() || rid->as_number() != id)
    fail_check("serve.reply_ok", fmt("reply does not carry request id %.0f: ", id) +
                                     line.substr(0, 200));
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
    fail_check("serve.reply_ok", fmt("request %.0f failed: ", id) + line.substr(0, 300));
  return v;
}

void sc_static(const Value& req, const Value& reply) {
  const std::string check = "serve.sc_static_closed_form";
  const double vin = num(req, "vin", check), n = num(req, "n", check), m = num(req, "m", check);
  const double got = num(analysis(reply, check), "vout_ideal_v", check);
  if (rel_differs(got, vin * m / n, 1e-12))
    fail_check(check, fmt("vout_ideal_v %.17g != vin*m/n = %.17g", got, vin * m / n));
}

namespace {
void eta_bound(const Value& req, const Value& reply, const std::string& check) {
  const double vin = num(req, "vin", check), vout = num(req, "vout", check);
  const double eta = num(analysis(reply, check), "efficiency", check);
  if (!(eta > 0.0 && eta <= vout / vin * (1.0 + 1e-12)))
    fail_check(check, fmt("efficiency %.17g not in (0, vout/vin = %.17g]", eta, vout / vin));
}
}  // namespace

void ldo_static(const Value& req, const Value& reply) {
  eta_bound(req, reply, "serve.ldo_static_closed_form");
}

void dldo_static(const Value& req, const Value& reply) {
  eta_bound(req, reply, "serve.dldo_static_closed_form");
}

void buck_static(const Value& req, const Value& reply) {
  const std::string check = "serve.buck_static_closed_form";
  const double vin = num(req, "vin", check), vout = num(req, "vout", check);
  const double duty = num(analysis(reply, check), "duty", check);
  if (!(duty >= vout / vin * (1.0 - 1e-12) && duty < 1.0))
    fail_check(check, fmt("duty %.17g not in [vout/vin = %.17g, 1)", duty, vout / vin));
}

std::string RcSpec::netlist() const {
  std::string s = "* rc ladder\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "V1 n0 0 DC %.17g\n", v);
  s += buf;
  for (std::size_t k = 0; k < r.size(); ++k) {
    std::snprintf(buf, sizeof buf, "R%zu n%zu n%zu %.17g\nC%zu n%zu 0 %.17g\n", k + 1, k, k + 1,
                  r[k], k + 1, k + 1, c[k]);
    s += buf;
  }
  return s + ".end";
}

void rc_transient(const RcSpec& spec, const Value& reply) {
  const std::string check = "serve.rc_transient";
  const Value& res = at(reply, "result", check);
  const Value& time = at(res, "time_s", check);
  const Value& nodes = at(res, "nodes", check);
  if (!time.is_array() || !nodes.is_array() || nodes.as_array().size() != 1)
    fail_check(check, "reply lacks one recorded node with a time axis");
  std::vector<double> t, got;
  for (const Value& x : time.as_array()) t.push_back(x.as_number());
  for (const Value& x : at(nodes.as_array()[0], "v", check).as_array()) got.push_back(x.as_number());
  if (t.size() != static_cast<std::size_t>(spec.steps) + 1)
    fail_check(check, "expected " + std::to_string(spec.steps + 1) + " samples, got " +
                          std::to_string(t.size()));
  Net net;
  int prev = net.node(spec.v);
  for (std::size_t k = 0; k < spec.r.size(); ++k) {
    const int nd = net.node();
    net.r.push_back({prev, nd, spec.r[k]});
    net.c.push_back({nd, 0, spec.c[k], 0.0});
    prev = nd;
  }
  const auto ref = integrate(net, t, spec.trapezoidal, true, {prev});
  close(got, ref[0], 1e-9 * spec.v, check);
}

void bytes_equal(const std::string& got, const std::string& want, const std::string& check) {
  if (got == want) return;
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  fail_check(check, "bytes differ at offset " + std::to_string(i) + " (lengths " +
                        std::to_string(got.size()) + " and " + std::to_string(want.size()) + ")");
}

}  // namespace pb::checks
