// Multithreaded thermal co-simulation scenario sweep.
//
// Scheme-study characterization over a grid of {migration scheme, period,
// power scale, grid refinement} scenarios. run_experiment_sweep() runs
// the grid through sweep::run_scenarios on cfg.threads workers, each
// scenario straight into its ExperimentSweepPoint slot. Determinism:
//
//   - every scenario gets its own RNG stream (used for the per-tile power
//     jitter that diversifies the workload maps), sweep::scenario_rng(seed,
//     scenario index) — never derived from the worker that runs it;
//   - each scenario is co-simulated end to end by exactly one worker into
//     its own slot, and no cross-scenario state exists (each scenario
//     owns its refined RC network, factorizations, and runtime), so the
//     result vector is bit-identical for any thread count, and any single
//     cell can be replayed in isolation with run_experiment_scenario() in
//     O(1) — without re-simulating the grid before it.
//
// Methodology per scenario: build the jittered, scaled per-tile power
// map, refine the thermal grid, lift the scheme's orbit to the fine grid,
// run the migrating co-simulation (core/thermal_runtime engine) plus the
// static baseline, and report peak/mean/ripple and the peak reduction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "floorplan/grid.hpp"
#include "thermal/hotspot_params.hpp"

namespace renoc {

/// One cell of the sweep grid.
struct ExperimentScenario {
  MigrationScheme scheme = MigrationScheme::kNone;
  double period_s = 109.3e-6;
  double power_scale = 1.0;
  int refine = 1;
};

struct ExperimentSweepConfig {
  GridDim dim{4, 4};                    ///< PE tile grid
  double tile_area = date05_tile_area();
  HotSpotParams hotspot = date05_hotspot_params();

  std::vector<MigrationScheme> schemes = figure1_schemes();
  std::vector<double> periods_s = {109.3e-6};
  std::vector<double> power_scales = {1.0};
  std::vector<int> refines = {1};       ///< thermal sub-blocks per tile side

  /// Per-tile watts of the workload. Empty = synthetic uniform map at
  /// `synthetic_tile_power_w`; a driver-measured map (e.g.
  /// ExperimentDriver::base_power) plugs in real workloads.
  std::vector<double> base_tile_power;
  double synthetic_tile_power_w = 2.0;
  /// Relative per-tile power jitter in [0, 1): each scenario draws factor
  /// 1 + jitter * U(-1, 1) per tile from its own RNG stream. Zero =
  /// deterministic maps (no RNG draws).
  double power_jitter = 0.25;
  /// Joules deposited per migration, spread uniformly over the die (zero
  /// = free migrations). Applied to every non-static scheme.
  double migration_energy_j = 0.0;

  ThermalRunOptions thermal{};  ///< period_s is overridden per scenario
  int threads = 1;              ///< worker thread count (>= 1)
  std::uint64_t seed = 1;       ///< master seed for all scenario streams

  void validate() const;

  /// The scenario grid in its fixed enumeration order (scheme-major, then
  /// period, power scale, refinement). Index i here is the scenario index
  /// fed to sweep::scenario_rng.
  std::vector<ExperimentScenario> scenarios() const;
};

/// Measured results for one scenario.
struct ExperimentSweepPoint {
  ExperimentScenario scenario;
  int scenario_index = 0;

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
/// scenarios() order, independent of cfg.threads.
std::vector<ExperimentSweepPoint> run_experiment_sweep(
    const ExperimentSweepConfig& cfg);

/// The jittered, scaled per-tile power map scenario `scenario_index`
/// draws (replay helper; consumes the same stream the sweep does).
std::vector<double> experiment_scenario_power(
    const ExperimentSweepConfig& cfg, const ExperimentScenario& scenario,
    int scenario_index);

/// Co-simulates one scenario exactly as the sweep would (same RNG stream,
/// same refined network and orbit). run_experiment_sweep(cfg)[i] ==
/// run_experiment_scenario(cfg.scenarios()[i], cfg, i) for every i.
ExperimentSweepPoint run_experiment_scenario(
    const ExperimentScenario& scenario, const ExperimentSweepConfig& cfg,
    int scenario_index);

}  // namespace renoc
