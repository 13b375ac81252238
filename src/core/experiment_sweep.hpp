// Thermal co-simulation scheme study over a grid of {migration scheme,
// period, grid refinement} scenarios on a measured workload power map.
//
// run_experiment_sweep() builds one refined RC network per refinement and
// one MigrationThermalRuntime per (refinement, period), and co-simulates
// the static baseline and every scheme of that pair in one lockstep
// MigrationThermalRuntime::run_batch call. Each result of a batch equals
// the lone run() of its job bit for bit, so every point equals a lone
// co-simulation of its cell on the same refined network.
//
// Methodology per scenario: spread the tile power map over the refined
// grid, lift the scheme's orbit to the fine grid, run the migrating
// co-simulation (core/thermal_runtime engine) plus the static baseline,
// and report peak/mean/ripple and the peak reduction.
#pragma once

#include <vector>

#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/grid.hpp"
#include "thermal/hotspot_params.hpp"

namespace renoc {

/// One cell of the sweep grid.
struct ExperimentScenario {
  MigrationScheme scheme = MigrationScheme::kNone;
  double period_s = 109.3e-6;
  int refine = 1;
};

struct ExperimentSweepConfig {
  GridDim dim{4, 4};  ///< PE tile grid (tiles of date05_tile_area())
  HotSpotParams hotspot = date05_hotspot_params();

  std::vector<MigrationScheme> schemes = figure1_schemes();
  std::vector<double> periods_s = {109.3e-6};
  std::vector<int> refines = {1};  ///< thermal sub-blocks per tile side

  /// Per-tile watts of the workload, one entry per tile (e.g.
  /// ExperimentDriver::base_power).
  std::vector<double> base_tile_power;

  void validate() const;

  /// The scenario grid in its fixed enumeration order: scheme-major, then
  /// period, then refinement.
  std::vector<ExperimentScenario> scenarios() const;
};

/// Measured results for one scenario.
struct ExperimentSweepPoint {
  ExperimentScenario scenario;

  int orbit_length = 0;
  int fine_nodes = 0;          ///< die nodes of the refined network

  double static_peak_c = 0.0;  ///< steady peak of the scenario's map
  double peak_temp_c = 0.0;    ///< migrating co-simulation peak
  double reduction_c = 0.0;    ///< static_peak_c - peak_temp_c
  double mean_temp_c = 0.0;
  double ripple_c = 0.0;
  double steady_peak_of_avg_c = 0.0;
  int orbits_run = 0;
  bool converged = false;
};

/// Runs the sweep; returns one ExperimentSweepPoint per scenario in
/// scenarios() order.
std::vector<ExperimentSweepPoint> run_experiment_sweep(
    const ExperimentSweepConfig& cfg);

}  // namespace renoc
