// The workloads and the per-layer probes of the traced run.
//
// Every workload repeats whole rounds of the same seeded operations until
// the run length has passed. In a traced run, spans are on in every second
// round, and the round count is even. Round 1's outputs go through the full
// correctness checks; later rounds must reproduce round 1 byte for byte.
// Each round sets itself up afresh (inputs, caches, warm-up), so setup_s is
// the median over rounds and work moved into set-up shows.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/pareto.hpp"
#include "pdn/pdn.hpp"
#include "spice/analysis.hpp"

namespace pb {

// dse_study: a seeded walk over SystemParams, funnel then exhaustive sweep.
std::vector<ivory::core::SystemParams> dse_points(std::uint64_t seed, int n);
LoopResult run_dse(const Options& o, double seconds);

// pdn_transient: power grids and switching converters.
struct GridCase {
  ivory::pdn::GridParams params;
  int steps = 30;
};
std::vector<GridCase> grid_cases(std::uint64_t seed);

/// Fig. 8's buck power stage folded to one phase ("buck") and Fig. 9's
/// two-phase SC stage behind the GPUVolt PDN ladder ("sc_pdn"), 20,000 fixed
/// steps each. `net` holds the same circuit for the reference integrator;
/// `net_probes` are the compared nodes, in record order.
struct Converter {
  std::string name;
  ivory::spice::Circuit ckt;
  ivory::spice::TranSpec spec;
  checks::Net net;
  std::vector<int> net_probes;
};
/// Four seeded variants of each converter, alternating; the first two of
/// each integrate with the trapezoidal rule, the last two with backward Euler.
std::vector<Converter> converters(std::uint64_t seed);
LoopResult run_pdn(const Options& o, double seconds);

/// Per-layer metrics of the traced run, measured in-process, in thread-pool
/// child processes and against short serve passes; identical procedure for
/// every workload.
std::vector<Metric> run_probes(const Options& o);

/// The thread-pool probe: `parallel_child` is the child's body (prints its
/// samples on stdout), `probe_parallel` runs the children and reports.
int parallel_child(const Options& o);
void probe_parallel(const Options& o, std::vector<Metric>& m);

}  // namespace pb
