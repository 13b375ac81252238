// Tests for the threaded experiment sweep harness: thread-count
// bit-invariance, the O(1) single-scenario replay contract, scenario
// enumeration, bookkeeping, and config validation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment_sweep.hpp"
#include "core/transform.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

/// Small but representative grid: two schemes (one with a fixed point on
/// odd meshes, one without), two periods, two scales, two refinements.
ExperimentSweepConfig small_config() {
  ExperimentSweepConfig cfg;
  cfg.dim = GridDim{4, 4};
  cfg.schemes = {MigrationScheme::kNone, MigrationScheme::kRotation,
                 MigrationScheme::kShiftXY};
  cfg.periods_s = {54.65e-6, 109.3e-6};
  cfg.power_scales = {1.0, 1.4};
  cfg.refines = {1, 2};
  cfg.power_jitter = 0.3;
  cfg.migration_energy_j = 40e-6;
  cfg.seed = 77;
  // Keep runs short: the determinism contract does not depend on how far
  // the orbit iteration converges.
  cfg.thermal.min_orbits = 1;
  cfg.thermal.max_orbits = 3;
  cfg.thermal.tol_c = 0.5;
  return cfg;
}

bool points_identical(const ExperimentSweepPoint& a,
                      const ExperimentSweepPoint& b) {
  return a.scenario_index == b.scenario_index &&
         a.scenario.scheme == b.scenario.scheme &&
         a.scenario.period_s == b.scenario.period_s &&
         a.scenario.power_scale == b.scenario.power_scale &&
         a.scenario.refine == b.scenario.refine &&
         a.orbit_length == b.orbit_length && a.fine_nodes == b.fine_nodes &&
         a.static_peak_c == b.static_peak_c &&
         a.peak_temp_c == b.peak_temp_c &&
         a.reduction_c == b.reduction_c &&
         a.mean_temp_c == b.mean_temp_c && a.ripple_c == b.ripple_c &&
         a.steady_peak_of_avg_c == b.steady_peak_of_avg_c &&
         a.orbits_run == b.orbits_run && a.converged == b.converged;
}

TEST(ExperimentSweepTest, ScenarioEnumerationOrder) {
  ExperimentSweepConfig cfg = small_config();
  const auto grid = cfg.scenarios();
  ASSERT_EQ(grid.size(), 3u * 2u * 2u * 2u);
  // Scheme-major, then period, power scale, refinement.
  EXPECT_EQ(grid[0].scheme, MigrationScheme::kNone);
  EXPECT_EQ(grid[0].refine, 1);
  EXPECT_EQ(grid[1].refine, 2);
  EXPECT_EQ(grid[2].power_scale, 1.4);
  EXPECT_DOUBLE_EQ(grid[4].period_s, 109.3e-6);
  EXPECT_EQ(grid[8].scheme, MigrationScheme::kRotation);
}

TEST(ExperimentSweepTest, ThreadCountInvariance) {
  // 1/2/4/7 workers must produce bit-identical result vectors: RNG
  // streams are derived from (seed, scenario), never from workers.
  ExperimentSweepConfig cfg = small_config();
  cfg.threads = 1;
  const auto baseline = run_experiment_sweep(cfg);
  ASSERT_EQ(baseline.size(), cfg.scenarios().size());
  for (const int threads : {2, 4, 7}) {
    cfg.threads = threads;
    const auto pts = run_experiment_sweep(cfg);
    ASSERT_EQ(pts.size(), baseline.size()) << threads << " threads";
    for (std::size_t i = 0; i < pts.size(); ++i)
      EXPECT_TRUE(points_identical(baseline[i], pts[i]))
          << threads << " threads, scenario " << i;
  }
}

TEST(ExperimentSweepTest, ReplayContractReproducesAnyCell) {
  ExperimentSweepConfig cfg = small_config();
  cfg.threads = 2;
  const auto pts = run_experiment_sweep(cfg);
  const auto grid = cfg.scenarios();
  // O(1) replay: every probed cell reproduces its sweep point without
  // running the grid before it.
  for (const std::size_t i :
       {std::size_t{0}, grid.size() / 2, grid.size() - 1}) {
    const ExperimentSweepPoint replayed =
        run_experiment_scenario(grid[i], cfg, static_cast<int>(i));
    EXPECT_TRUE(points_identical(pts[i], replayed)) << "cell " << i;
  }
  // And the power-map replay helper regenerates the exact map.
  const auto map_a = experiment_scenario_power(cfg, grid[3], 3);
  const auto map_b = experiment_scenario_power(cfg, grid[3], 3);
  EXPECT_EQ(map_a, map_b);
  // Different scenarios draw different jitter.
  const auto map_c = experiment_scenario_power(cfg, grid[5], 5);
  EXPECT_NE(map_a, map_c);
}

TEST(ExperimentSweepTest, BookkeepingInvariants) {
  ExperimentSweepConfig cfg = small_config();
  cfg.threads = 2;
  const auto pts = run_experiment_sweep(cfg);
  for (const ExperimentSweepPoint& pt : pts) {
    EXPECT_EQ(pt.fine_nodes,
              16 * pt.scenario.refine * pt.scenario.refine);
    EXPECT_NEAR(pt.reduction_c, pt.static_peak_c - pt.peak_temp_c, 1e-12);
    EXPECT_TRUE(std::isfinite(pt.peak_temp_c));
    if (pt.scenario.scheme == MigrationScheme::kNone) {
      // Static scenarios: the migrating run is the static run.
      EXPECT_EQ(pt.orbit_length, 1);
      EXPECT_DOUBLE_EQ(pt.reduction_c, 0.0);
      EXPECT_EQ(pt.orbits_run, 0);
    } else {
      EXPECT_GT(pt.orbit_length, 1);
      EXPECT_GT(pt.orbits_run, 0);
    }
  }
  // Scaling power up scales peaks up (same scheme/period/refine).
  const auto grid = cfg.scenarios();
  for (std::size_t i = 0; i + 2 < grid.size(); ++i) {
    if (grid[i].scheme == grid[i + 2].scheme &&
        grid[i].period_s == grid[i + 2].period_s &&
        grid[i].refine == grid[i + 2].refine &&
        grid[i].power_scale < grid[i + 2].power_scale) {
      EXPECT_LT(pts[i].peak_temp_c, pts[i + 2].peak_temp_c)
          << "scenario " << i;
    }
  }
}

TEST(ExperimentSweepTest, BaseMapOverridesSynthetic) {
  ExperimentSweepConfig cfg = small_config();
  cfg.schemes = {MigrationScheme::kNone};
  cfg.periods_s = {109.3e-6};
  cfg.power_scales = {1.0};
  cfg.refines = {1};
  cfg.power_jitter = 0.0;  // deterministic map: exactly the base map
  cfg.base_tile_power.assign(16, 1.0);
  cfg.base_tile_power[5] = 9.0;
  const auto power = experiment_scenario_power(cfg, cfg.scenarios()[0], 0);
  EXPECT_EQ(power, cfg.base_tile_power);
  const auto pts = run_experiment_sweep(cfg);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].peak_temp_c, cfg.hotspot.ambient);
}

TEST(ExperimentSweepTest, ConfigValidation) {
  const auto expect_invalid = [](ExperimentSweepConfig cfg) {
    EXPECT_THROW(cfg.validate(), CheckError);
  };
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.schemes.clear();
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.dim = GridDim{4, 3};  // rotation not closed on non-square meshes
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.periods_s = {1e-6};  // below thermal.dt_s
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.power_scales = {0.0};
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.refines = {0};
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.power_jitter = 1.0;
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.base_tile_power.assign(9, 1.0);  // wrong tile count
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.threads = 0;
    expect_invalid(cfg);
  }
  EXPECT_NO_THROW(small_config().validate());
}

}  // namespace
}  // namespace renoc