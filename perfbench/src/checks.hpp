// Correctness checks of the benchmark. Each one compares the program's
// output with a computation made here, apart from the program, or with a
// property the method must have; none compares with a stored copy of an
// earlier output. A rejected output throws CheckFailure naming the check.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/json.hpp"
#include "core/pareto.hpp"
#include "pdn/pdn.hpp"

namespace pb::checks {

// --- dse_study -------------------------------------------------------------

/// The frontier is mutually non-dominated (pairwise, O(n^2), over the
/// enabled objectives of its screen metrics) and ordered by screen
/// efficiency descending with the candidate index ascending as tie-break.
void frontier(const ivory::core::ParetoFront& f, const ivory::core::FunnelObjectives& obj);

/// 0 < efficiency < 1, and a design that claims feasibility meets the area
/// and ripple limits of `sys` within the optimizer's stated slack.
void design_limits(const ivory::core::DseResult& d, const ivory::core::SystemParams& sys,
                   const std::string& where);

/// Frontier points whose screen metrics and exact design differ by more than
/// `rel` (relative) in efficiency, area or ripple. Reported, never failed.
std::size_t screen_exact_mismatches(const ivory::core::ParetoFront& f, double rel = 1e-9);

// --- pdn_transient ---------------------------------------------------------

/// Every recorded grid sample lies in [0, vdd].
void grid_bounds(const std::vector<std::vector<double>>& tiles, double vdd);

/// DC nodal solution of the grid (tiles in y * nx + x order) with the step
/// load fully on, by conjugate gradients on the conductance matrix.
std::vector<double> grid_dc(const ivory::pdn::GridParams& p);

/// max |got - want| <= tol, else fails `check` naming the worst index.
void close(const std::vector<double>& got, const std::vector<double>& want, double tol,
           const std::string& check);

/// A small lumped circuit for the reference integrator: node 0 is ground,
/// a node with a finite `fixed` entry is held by an ideal source.
struct Net {
  struct R { int a, b; double ohm; };
  struct C { int a, b; double f, ic; };
  struct L { int a, b; double h, ic; };
  struct S { int a, b; double ron, roff; std::function<bool(double)> closed; };
  struct I { int a, b; double amps; };  ///< constant current drawn from a into b
  std::vector<double> fixed{0.0};        ///< per node; NaN = free
  std::vector<R> r;
  std::vector<C> c;
  std::vector<L> l;
  std::vector<S> s;
  std::vector<I> i;
  int node();               ///< adds a free node
  int node(double volts);   ///< adds a node held at `volts`
};

/// Backward-Euler (or trapezoidal with a backward-Euler step at the start
/// and after every switch change) integration of `net` over the given time
/// points, switches sampled at each step's midpoint. `use_ic` starts from
/// the element initial conditions, else from the DC solution (capacitors
/// open, inductors shorted, switches at their t = 0 state). Returns the
/// voltage of each probe node at every time point; with use_ic the t = 0
/// entry is NaN (the initial node voltages are not a state of the method).
std::vector<std::vector<double>> integrate(const Net& net, const std::vector<double>& times,
                                           bool trapezoidal, bool use_ic,
                                           const std::vector<int>& probes);

// --- serve ------------------------------------------------------------------

/// The reply parses, is ok, and echoes `id`.
ivory::json::Value reply_ok(const std::string& line, double id);

/// Closed forms on the static ops, given the request body and the reply.
void sc_static(const ivory::json::Value& req, const ivory::json::Value& reply);
void ldo_static(const ivory::json::Value& req, const ivory::json::Value& reply);
void dldo_static(const ivory::json::Value& req, const ivory::json::Value& reply);
void buck_static(const ivory::json::Value& req, const ivory::json::Value& reply);

/// An RC or RC-ladder netlist request as the benchmark builds it.
struct RcSpec {
  double v = 1.0;
  std::vector<double> r, c;  ///< one entry per section
  double dt = 1e-9;
  int steps = 100;
  bool trapezoidal = false;
  std::string netlist() const;
};
/// The reply's waveform of the last ladder node equals the benchmark's own
/// recurrence on the reply's time points within 1e-9 V.
void rc_transient(const RcSpec& spec, const ivory::json::Value& reply);

void bytes_equal(const std::string& got, const std::string& want, const std::string& check);

}  // namespace pb::checks
