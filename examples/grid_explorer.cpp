// On-chip power-grid design space exploration with the banded MNA kernel.
//
// Sweeps bump pitch and decap budget over an N x M on-chip grid, runs a
// step-load droop transient on each candidate, and reports worst-case droop
// at the grid center together with the factorization kernel the size/density
// rule picked and the solver cost counters. A city-block-scale grid
// (thousands of nodes) is tractable here precisely because the stamped MNA
// system never goes through a dense matrix: under an RCM ordering the banded
// kernel only touches the O(sqrt(n))-wide band of the mesh.
//
// Build: cmake --build build --target grid_explorer
// Run:   ./build/examples/grid_explorer [nx [ny]]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pdn/pdn.hpp"
#include "spice/analysis.hpp"

using namespace ivory;

int main(int argc, char** argv) {
  const int nx = argc > 1 ? std::atoi(argv[1]) : 24;
  const int ny = argc > 2 ? std::atoi(argv[2]) : nx;

  std::printf("grid_explorer: %d x %d on-chip grid, step-load droop sweep\n\n", nx, ny);
  std::printf("%-10s %-12s %-10s %-12s %-12s %-10s\n", "pitch", "decap/tile", "kernel",
              "droop (mV)", "factor nnz", "steps");

  for (const int pitch : {2, 4, 8}) {
    if (pitch > nx || pitch > ny) continue;
    for (const double decap : {20e-12, 50e-12, 100e-12}) {
      pdn::GridParams gp;
      gp.nx = nx;
      gp.ny = ny;
      gp.bump_pitch = pitch;
      gp.tile_cap_f = decap;
      spice::Circuit ckt;
      const pdn::GridNodes nodes = pdn::build_grid_netlist(ckt, gp);

      spice::TranSpec spec;
      spec.tstop = 10e-9;
      spec.dt = 0.1e-9;
      spec.record_nodes = {nodes.center};
      const spice::TranResult res = spice::transient(ckt, spec);

      const std::vector<double>& v = res.at(nodes.center);
      double vmin = v.front();
      for (const double s : v) vmin = s < vmin ? s : vmin;
      const double droop_mv = 1e3 * (gp.vdd_v - vmin);

      std::printf("%-10d %-12.0f %-10s %-12.2f %-12zu %-10zu\n", pitch, decap * 1e12,
                  res.kernel.c_str(), droop_mv, res.factor_nnz, res.steps_taken);
    }
  }
  std::printf("\n(decap/tile in pF; droop measured at the grid center tile)\n");
  return 0;
}
