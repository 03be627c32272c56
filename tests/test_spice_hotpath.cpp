// Transient hot-path tests: the keyed LU-factorization cache must bound
// factorization work by the number of distinct (step, integrator,
// switch-state) configurations — not by step count — while producing output
// that is byte-identical at every cache capacity, including disabled.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "spice/parser.hpp"
#include "spice/spice.hpp"

namespace ivory::spice {
namespace {

// A 2:1 two-phase switched-capacitor converter: the canonical steady-state
// switched workload. Two non-overlapping phases plus dead time give a small,
// fixed set of switch configurations that recur every cycle.
Circuit two_phase_sc() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId fly = c.node("fly");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(3.3));
  const PhaseClock clk(20e6, 2, 0.48);
  c.add_switch("s1", in, fly, 0.01, 1e8, clk.control(0), clk.edge_fn(0));
  c.add_switch("s2", fly, out, 0.01, 1e8, clk.control(1), clk.edge_fn(1));
  c.add_capacitor_ic("cfly", fly, kGround, 100e-9, 1.65);
  c.add_capacitor_ic("cout", out, kGround, 100e-9, 1.65);
  c.add_resistor("rl", out, kGround, 3.3);
  return c;
}

TranSpec sc_spec(int lu_cache_capacity, bool adaptive = false) {
  TranSpec spec;
  spec.tstop = 5e-6;  // 100 switching cycles.
  spec.dt = 1.0 / (400.0 * 20e6);
  spec.use_ic = true;
  spec.method = Integrator::BackwardEuler;
  spec.adaptive = adaptive;
  spec.lu_cache_capacity = lu_cache_capacity;
  return spec;
}

bool byte_identical(const TranResult& a, const TranResult& b) {
  if (a.time.size() != b.time.size() || a.voltages.size() != b.voltages.size()) return false;
  if (std::memcmp(a.time.data(), b.time.data(), a.time.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    if (a.voltages[i].size() != b.voltages[i].size() ||
        std::memcmp(a.voltages[i].data(), b.voltages[i].data(),
                    a.voltages[i].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(HotPath, FactorizationsBoundedByDistinctConfigsNotSteps) {
  // With a roomy cache, steady state factors once per distinct configuration
  // (phase states x {regular step, edge-shortened steps, first-step BE}).
  // Doubling the horizon must add steps but no new configurations.
  const Circuit c = two_phase_sc();
  TranSpec spec = sc_spec(64);
  const TranResult res = transient(c, spec);
  EXPECT_GE(res.steps_taken, 40000u);
  EXPECT_LE(res.lu_factorizations, 40u);

  // Doubling the horizon doubles the steps but adds at most a handful of new
  // keys: edge-aligned shortened steps pick up fresh floating-point residue
  // as absolute time grows, so the key set creeps (28 -> ~34 here) instead
  // of staying frozen — what matters is that it does not scale with steps.
  spec.tstop *= 2.0;
  const TranResult longer = transient(c, spec);
  EXPECT_GT(longer.steps_taken, res.steps_taken);
  EXPECT_LE(longer.lu_factorizations, res.lu_factorizations + res.lu_factorizations / 2)
      << "factorization count grew with simulated time: the cache key set is "
         "not recurring";
  EXPECT_LE(longer.lu_factorizations, 60u);
}

TEST(HotPath, FixedStepCountersAreConsistent) {
  const Circuit c = two_phase_sc();
  const TranResult res = transient(c, sc_spec(8));
  // Fixed-step: every accepted step either hit the cache or factored.
  EXPECT_EQ(res.lu_cache_hits + res.lu_factorizations, res.steps_taken);
  EXPECT_LE(res.max_resident_factorizations, 8u);
  EXPECT_GT(res.lu_cache_hits, res.lu_factorizations);

  const TranResult uncached = transient(c, sc_spec(0));
  EXPECT_EQ(uncached.lu_cache_hits, 0u);
  EXPECT_EQ(uncached.lu_cache_evictions, 0u);
  EXPECT_EQ(uncached.lu_factorizations, uncached.steps_taken);
  EXPECT_EQ(uncached.max_resident_factorizations, 1u);
}

TEST(HotPath, ByteIdenticalAcrossCacheCapacities) {
  const Circuit c = two_phase_sc();
  for (const bool adaptive : {false, true}) {
    const TranResult reference = transient(c, sc_spec(1, adaptive));
    for (const int capacity : {0, 2, 8, 64}) {
      const TranResult got = transient(c, sc_spec(capacity, adaptive));
      EXPECT_TRUE(byte_identical(reference, got))
          << "capacity " << capacity << (adaptive ? " adaptive" : " fixed-step")
          << " diverged from the single-slot baseline";
    }
  }
}

TEST(HotPath, ParsedSwitchNetlistMatchesProgrammaticCircuit) {
  // The S-card must build the same switched circuit the C++ API builds: same
  // steps, same factorization count, byte-identical waveform.
  const Circuit api = two_phase_sc();
  // Values are written so the parser's arithmetic reproduces the exact API
  // doubles ("1e-7" parses to the same bits as the 100e-9 literal; a "100n"
  // suffix would compute 100 * 1e-9, one ULP away).
  const Circuit parsed = parse_netlist(
      "* two-phase 2:1 SC converter\n"
      "vin in 0 DC 3.3\n"
      "s1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\n"
      "s2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\n"
      "cfly fly 0 1e-7 IC=1.65\n"
      "cout out 0 1e-7 IC=1.65\n"
      "rl out 0 3.3\n"
      ".end\n");
  TranSpec spec = sc_spec(8);
  spec.record_nodes = {api.find_node("out")};
  TranSpec pspec = spec;
  pspec.record_nodes = {parsed.find_node("out")};
  const TranResult a = transient(api, spec);
  const TranResult b = transient(parsed, pspec);
  EXPECT_EQ(a.steps_taken, b.steps_taken);
  EXPECT_EQ(a.lu_factorizations, b.lu_factorizations);
  ASSERT_EQ(a.time.size(), b.time.size());
  EXPECT_EQ(0, std::memcmp(a.voltages[0].data(), b.voltages[0].data(),
                           a.voltages[0].size() * sizeof(double)));
}

// Linear time-invariant RLC ladder: `stages` RC sections behind a series
// RL input filter. Above 48 unknowns it factors banded, below it dense.
Circuit lti_ladder(int stages) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("vin", in, kGround, Waveform::dc(1.0));
  c.add_resistor("rs", in, mid, 0.05);
  NodeId prev = c.node("n0");
  c.add_inductor("ls", mid, prev, 1e-9);
  c.add_capacitor("c0", prev, kGround, 1e-9);
  for (int i = 1; i < stages; ++i) {
    const NodeId ni = c.node("n" + std::to_string(i));
    c.add_resistor("r" + std::to_string(i), prev, ni, 0.1);
    c.add_capacitor("c" + std::to_string(i), ni, kGround, 1e-10);
    prev = ni;
  }
  c.add_isource("load", prev, kGround, Waveform::dc(0.02));
  return c;
}

TEST(HotPath, LtiFixedStepFactorsOncePerIntegrator) {
  // A fixed step on a linear time-invariant circuit sees one matrix per
  // integrator: 1 factorization under backward Euler, 2 under trapezoidal
  // (the backward-Euler start step, then the trapezoidal steps). The final
  // step's remainder tstop - t carries the rounding t accumulated; it must
  // not miss the cache. tstop is formed as steps * dt or parsed from its
  // decimal spelling, as a netlist or CLI user writes it.
  const Circuit small = lti_ladder(6);
  const Circuit large = lti_ladder(60);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Pcg32 rng(seed);
    const unsigned steps = 2 + rng.next_u32() % 1500;
    const unsigned mant = 1 + rng.next_u32() % 99;
    const std::string exp = "e-" + std::to_string(10 + rng.next_u32() % 3);
    TranSpec spec;
    spec.dt = std::strtod((std::to_string(mant) + exp).c_str(), nullptr);
    spec.tstop = rng.next_u32() % 2 == 0
                     ? steps * spec.dt
                     : std::strtod((std::to_string(steps * mant) + exp).c_str(), nullptr);
    spec.record_nodes = {1};
    for (const Circuit* c : {&small, &large})
      for (const Integrator method : {Integrator::BackwardEuler, Integrator::Trapezoidal}) {
        spec.method = method;
        const TranResult res = transient(*c, spec);
        const bool be = method == Integrator::BackwardEuler;
        EXPECT_EQ(res.lu_factorizations, be ? 1u : 2u)
            << "seed " << seed << ": steps=" << steps << " dt=" << mant << exp
            << (be ? " be" : " trap") << " " << res.kernel;
        EXPECT_EQ(res.steps_taken, steps) << "seed " << seed;
      }
  }
}

TEST(HotPath, InvalidCapacityThrows) {
  const Circuit c = two_phase_sc();
  TranSpec spec = sc_spec(-1);
  EXPECT_THROW(transient(c, spec), InvalidParameter);
}

}  // namespace
}  // namespace ivory::spice
