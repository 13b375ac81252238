// Tests for the experiment sweep: scenario enumeration, every cell against
// a lone co-simulation on the same refined network, bookkeeping, config
// validation, and the full-scale resolution study renoc_paper runs, pinned
// bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/chip_config.hpp"
#include "core/experiment.hpp"
#include "core/experiment_sweep.hpp"
#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "thermal/grid_refine.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

/// Small but representative grid: the static scheme plus two migrating
/// ones (rotation has a fixed point on odd meshes, X-Y shift none), two
/// periods, two refinements, on a non-uniform power map.
ExperimentSweepConfig small_config() {
  ExperimentSweepConfig cfg;
  cfg.dim = GridDim{4, 4};
  cfg.schemes = {MigrationScheme::kNone, MigrationScheme::kRotation,
                 MigrationScheme::kShiftXY};
  cfg.periods_s = {54.65e-6, 109.3e-6};
  cfg.refines = {1, 2};
  for (int t = 0; t < cfg.dim.node_count(); ++t)
    cfg.base_tile_power.push_back(t < 4 ? 3.5 : 1.0 + 0.125 * t);
  return cfg;
}

/// `tile_perm` lifted to the refine-subdivided grid: a sub-block keeps its
/// offset inside its tile while the tile moves.
std::vector<int> lifted(const std::vector<int>& tile_perm, const GridDim& dim,
                        int refine) {
  const int fine_width = dim.width * refine;
  std::vector<int> out(tile_perm.size() *
                       static_cast<std::size_t>(refine * refine));
  for (std::size_t f = 0; f < out.size(); ++f) {
    const int fx = static_cast<int>(f) % fine_width;
    const int fy = static_cast<int>(f) / fine_width;
    const int dst = tile_perm[static_cast<std::size_t>(
        (fy / refine) * dim.width + fx / refine)];
    out[f] = ((dst / dim.width) * refine + fy % refine) * fine_width +
             (dst % dim.width) * refine + fx % refine;
  }
  return out;
}

TEST(ExperimentSweepTest, ScenarioEnumerationOrder) {
  const ExperimentSweepConfig cfg = small_config();
  const auto grid = cfg.scenarios();
  ASSERT_EQ(grid.size(), 3u * 2u * 2u);
  // Scheme-major, then period, then refinement.
  EXPECT_EQ(grid[0].scheme, MigrationScheme::kNone);
  EXPECT_EQ(grid[0].refine, 1);
  EXPECT_EQ(grid[1].refine, 2);
  EXPECT_EQ(grid[1].period_s, 54.65e-6);
  EXPECT_EQ(grid[2].period_s, 109.3e-6);
  EXPECT_EQ(grid[2].refine, 1);
  EXPECT_EQ(grid[4].scheme, MigrationScheme::kRotation);
  EXPECT_EQ(grid[11].scheme, MigrationScheme::kShiftXY);
}

TEST(ExperimentSweepTest, EveryCellEqualsALoneRunOnItsRefinedNetwork) {
  // The sweep co-simulates each (refinement, period) pair's schemes and
  // static baseline as one lockstep batch; every field of every cell must
  // equal a lone run() of that cell, bit for bit.
  const ExperimentSweepConfig cfg = small_config();
  const std::vector<ExperimentSweepPoint> points = run_experiment_sweep(cfg);
  const auto grid = cfg.scenarios();
  ASSERT_EQ(points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const ExperimentScenario& sc = grid[i];
    const ExperimentSweepPoint& p = points[i];
    EXPECT_EQ(p.scenario.scheme, sc.scheme);
    EXPECT_EQ(p.scenario.period_s, sc.period_s);
    EXPECT_EQ(p.scenario.refine, sc.refine);

    const RefinedThermalModel model(cfg.dim, date05_tile_area(), cfg.hotspot,
                                    sc.refine);
    const std::vector<double> power = model.refine_power(cfg.base_tile_power);
    std::vector<std::vector<int>> orbit;
    for (const auto& perm :
         orbit_permutations(transform_of(sc.scheme), cfg.dim))
      orbit.push_back(lifted(perm, cfg.dim, sc.refine));
    ThermalRunOptions options;
    options.period_s = sc.period_s;
    const MigrationThermalRuntime runtime(model.network(), options);
    const ThermalRunResult lone = runtime.run(power, orbit, {});
    const ThermalRunResult stat = runtime.run(
        power, {identity_permutation(model.fine_dim().node_count())}, {});

    EXPECT_EQ(p.orbit_length, static_cast<int>(orbit.size()));
    EXPECT_EQ(p.fine_nodes, model.fine_dim().node_count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.static_peak_c),
              std::bit_cast<std::uint64_t>(stat.peak_temp_c));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.peak_temp_c),
              std::bit_cast<std::uint64_t>(lone.peak_temp_c));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.reduction_c),
              std::bit_cast<std::uint64_t>(stat.peak_temp_c -
                                           lone.peak_temp_c));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.mean_temp_c),
              std::bit_cast<std::uint64_t>(lone.mean_temp_c));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.ripple_c),
              std::bit_cast<std::uint64_t>(lone.ripple_c));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.steady_peak_of_avg_c),
              std::bit_cast<std::uint64_t>(lone.steady_peak_of_avg_c));
    EXPECT_EQ(p.orbits_run, lone.orbits_run);
    EXPECT_EQ(p.converged, lone.converged);
  }
}

TEST(ExperimentSweepTest, BookkeepingInvariants) {
  const ExperimentSweepConfig cfg = small_config();
  for (const ExperimentSweepPoint& pt : run_experiment_sweep(cfg)) {
    EXPECT_EQ(pt.fine_nodes,
              16 * pt.scenario.refine * pt.scenario.refine);
    EXPECT_NEAR(pt.reduction_c, pt.static_peak_c - pt.peak_temp_c, 1e-12);
    EXPECT_TRUE(std::isfinite(pt.peak_temp_c));
    EXPECT_GT(pt.static_peak_c, cfg.hotspot.ambient);
    if (pt.scenario.scheme == MigrationScheme::kNone) {
      // Static scenarios: the migrating run is the static run.
      EXPECT_EQ(pt.orbit_length, 1);
      EXPECT_DOUBLE_EQ(pt.reduction_c, 0.0);
      EXPECT_EQ(pt.orbits_run, 0);
    } else {
      // The hot row moves, so migration cools the peak.
      EXPECT_GT(pt.orbit_length, 1);
      EXPECT_GT(pt.orbits_run, 0);
      EXPECT_GT(pt.reduction_c, 0.0);
    }
  }
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
    cfg.base_tile_power.assign(12, 1.0);
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.periods_s = {1e-6};  // below the 2 us transient step
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.refines = {0};
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.base_tile_power.clear();  // the workload map is required
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.base_tile_power.assign(9, 1.0);  // wrong tile count
    expect_invalid(cfg);
  }
  {
    ExperimentSweepConfig cfg = small_config();
    cfg.base_tile_power[3] = -1.0;
    expect_invalid(cfg);
  }
  EXPECT_NO_THROW(small_config().validate());
}

// One cell of the full-scale resolution study: every ExperimentSweepPoint
// field, reals as bit patterns, printable as the literal rows below so a
// failure shows the row it got.
struct ResolutionPin {
  MigrationScheme scheme = MigrationScheme::kNone;
  int refine = 0;
  int orbit_length = 0;
  int fine_nodes = 0;
  std::uint64_t static_peak_bits = 0;
  std::uint64_t peak_bits = 0;
  std::uint64_t reduction_bits = 0;
  std::uint64_t mean_bits = 0;
  std::uint64_t ripple_bits = 0;
  std::uint64_t steady_peak_of_avg_bits = 0;
  int orbits_run = 0;
  bool converged = false;
  bool operator==(const ResolutionPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ResolutionPin& p) {
  return os << "{MigrationScheme::"
            << (p.scheme == MigrationScheme::kRotation ? "kRotation"
                                                        : "kShiftXY")
            << ", " << p.refine << ", " << p.orbit_length << ", "
            << p.fine_nodes << std::hex << ", 0x" << p.static_peak_bits
            << ", 0x" << p.peak_bits << ", 0x" << p.reduction_bits << ", 0x"
            << p.mean_bits << ", 0x" << p.ripple_bits << ", 0x"
            << p.steady_peak_of_avg_bits << std::dec << ", " << p.orbits_run
            << ", " << (p.converged ? "true" : "false") << "}";
}

TEST(ExperimentSweepTest, PaperScaleResolutionMatchesParent) {
  // renoc_paper's resolution record at full scale: configuration A
  // prepared as renoc_paper prepares it, {rotation, X-Y shift} x refines
  // {1, 2, 3, 4} at the default period on the measured power map. The
  // golden covers only the smoke record, at 5e-4 relative. A change to
  // how the sweep builds its networks or integrates its schemes moves
  // these bits.
  const ResolutionPin pins[] = {
      {MigrationScheme::kRotation, 1, 4, 16, 0x40555c28f5c28f5c,
       0x40534b586d7e179b, 0x402086844223be08, 0x405303f64b8b1e31,
       0x3f952e882f303000, 0x405349fe08529760, 3, true},
      {MigrationScheme::kRotation, 2, 4, 64, 0x40554e177dcf2546,
       0x405359cc0ea00f0a, 0x401f44b6f2f163c0, 0x4052f8ad588d0826,
       0x3f93c2deaa69c000, 0x4053587fed79c700, 3, true},
      {MigrationScheme::kRotation, 3, 4, 144, 0x4055436eeff23bff,
       0x40535cdbaaf75123, 0x401e69344faeadc0, 0x4052f64066691e11,
       0x3f90de64d559d000, 0x40535bb2c9a71145, 4, true},
      {MigrationScheme::kRotation, 4, 4, 256, 0x405541318359d42e,
       0x40535df38acfc7da, 0x401e33df88a0c540, 0x4052f55e76ce8be2,
       0x3f8e5b78c7230000, 0x40535cde96391820, 4, true},
      {MigrationScheme::kShiftXY, 1, 4, 16, 0x40555c28f5c28f5c,
       0x4053ac5daa9e32ad, 0x401afcb4b245caf0, 0x4053046debc42ed8,
       0x3fb402cd18c4d000, 0x4053a7c9c43d4ace, 6, true},
      {MigrationScheme::kShiftXY, 2, 4, 64, 0x40554e177dcf2546,
       0x4053a144db617812, 0x401acd2a26dad340, 0x4052f92f0aa676dc,
       0x3fb3f2e0164cf000, 0x40539cbbf412fc12, 6, true},
      {MigrationScheme::kShiftXY, 3, 4, 144, 0x4055436eeff23bff,
       0x40539d226299ab60, 0x401a64c8d58909f0, 0x4052f6c4259eaa55,
       0x3fb3ffa4856d2000, 0x4053988d4909f52a, 6, true},
      {MigrationScheme::kShiftXY, 4, 4, 256, 0x405541318359d42e,
       0x40539fb7c5f4a92b, 0x401a179bd652b030, 0x4052f5e2f0b21417,
       0x3fb3fd1a244c6c00, 0x40539b269278208a, 6, true},
  };
  ExperimentDriver driver(config_by_name("A"));
  driver.prepare();
  const double period = driver.default_period_s();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(period), 0x3f1d37260f91cbf8u);

  ExperimentSweepConfig sweep;
  sweep.dim = driver.chip().config.dim;
  sweep.hotspot = driver.chip().config.hotspot;
  sweep.schemes = {MigrationScheme::kRotation, MigrationScheme::kShiftXY};
  sweep.periods_s = {period};
  sweep.refines = {1, 2, 3, 4};
  sweep.base_tile_power = driver.base_power();
  const std::vector<ExperimentSweepPoint> points = run_experiment_sweep(sweep);
  ASSERT_EQ(points.size(), std::size(pins));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentSweepPoint& p = points[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.scenario.period_s),
              std::bit_cast<std::uint64_t>(period))
        << "cell " << i;
    const ResolutionPin got{
        p.scenario.scheme,
        p.scenario.refine,
        p.orbit_length,
        p.fine_nodes,
        std::bit_cast<std::uint64_t>(p.static_peak_c),
        std::bit_cast<std::uint64_t>(p.peak_temp_c),
        std::bit_cast<std::uint64_t>(p.reduction_c),
        std::bit_cast<std::uint64_t>(p.mean_temp_c),
        std::bit_cast<std::uint64_t>(p.ripple_c),
        std::bit_cast<std::uint64_t>(p.steady_peak_of_avg_c),
        p.orbits_run,
        p.converged};
    EXPECT_EQ(got, pins[i]) << "cell " << i << ": got " << got;
  }
}

}  // namespace
}  // namespace renoc
