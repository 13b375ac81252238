// Tests for the migration thermal co-simulation: consistency with steady
// state, orbit-average behaviour, ripple magnitude, and migration-energy
// accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "power/power_map.hpp"
#include "support/reference_runtime.hpp"
#include "thermal/grid_refine.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

RcNetwork make_net(int side) {
  return build_rc_network(
      make_grid_floorplan(GridDim{side, side}, date05_tile_area()),
      date05_hotspot_params());
}

std::vector<double> hot_corner_map(int side, double hot, double cool) {
  std::vector<double> p(static_cast<std::size_t>(side * side), cool);
  p[0] = hot;  // tile (0,0)
  return p;
}

TEST(ThermalRuntimeTest, StaticCaseEqualsSteadyState) {
  const RcNetwork net = make_net(4);
  SteadyStateSolver steady(net);
  const auto power = hot_corner_map(4, 9.0, 1.0);
  MigrationThermalRuntime runtime(net, ThermalRunOptions{});
  const ThermalRunResult r =
      runtime.run(power, {identity_permutation(16)}, {});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.peak_temp_c, steady.peak_die_temperature(power), 1e-9);
  EXPECT_DOUBLE_EQ(r.ripple_c, 0.0);
}

TEST(ThermalRuntimeTest, MigrationReducesPeakForCornerHotspot) {
  // A rotating corner hotspot time-shares four corners; the peak must drop
  // substantially versus static, and approach the steady state of the
  // orbit-averaged map from above.
  const RcNetwork net = make_net(4);
  SteadyStateSolver steady(net);
  const auto power = hot_corner_map(4, 9.0, 1.0);
  const double static_peak = steady.peak_die_temperature(power);

  const auto orbit =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, GridDim{4, 4});
  MigrationThermalRuntime runtime(net, ThermalRunOptions{});
  const ThermalRunResult r = runtime.run(power, orbit, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.peak_temp_c, static_peak - 1.0);
  EXPECT_GE(r.peak_temp_c, r.steady_peak_of_avg_c - 1e-6);
  // The ripple at a 109 us period is small but nonzero.
  EXPECT_GT(r.ripple_c, 0.0);
  EXPECT_LT(r.ripple_c, 2.0);
}

TEST(ThermalRuntimeTest, ShorterPeriodsTrackAverageMoreTightly) {
  const RcNetwork net = make_net(4);
  const auto power = hot_corner_map(4, 8.0, 1.0);
  const auto orbit =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, GridDim{4, 4});
  auto peak_at = [&](double period) {
    ThermalRunOptions opt;
    opt.period_s = period;
    opt.dt_s = period / 50;
    MigrationThermalRuntime runtime(net, opt);
    return runtime.run(power, orbit, {});
  };
  const ThermalRunResult fast = peak_at(109.3e-6);
  const ThermalRunResult slow = peak_at(874.4e-6);
  // Longer periods let the hotspot develop further between migrations.
  EXPECT_GE(slow.peak_temp_c, fast.peak_temp_c - 1e-6);
  EXPECT_GT(slow.ripple_c, fast.ripple_c);
  // The gap stays bounded (this synthetic hotspot is far more extreme
  // than the calibrated configurations, where the paper-scale sub-0.1 C
  // behaviour is checked by the period-sweep bench).
  EXPECT_LT(slow.peak_temp_c - fast.peak_temp_c, 3.0);
}

TEST(ThermalRuntimeTest, MigrationEnergyRaisesTemperature) {
  const RcNetwork net = make_net(4);
  const auto power = hot_corner_map(4, 6.0, 1.0);
  const auto orbit =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, GridDim{4, 4});
  MigrationThermalRuntime runtime(net, ThermalRunOptions{});

  const ThermalRunResult free_run = runtime.run(power, orbit, {});
  // 200 uJ deposited per migration, uniformly.
  std::vector<std::vector<double>> energy(
      orbit.size(), std::vector<double>(16, 200e-6 / 16));
  const ThermalRunResult priced = runtime.run(power, orbit, energy);
  EXPECT_GT(priced.peak_temp_c, free_run.peak_temp_c);
  EXPECT_GT(priced.mean_temp_c, free_run.mean_temp_c);
  // Sanity: the mean rise roughly matches energy/period spread over the
  // whole chip through the package resistance (order of magnitude only).
  const double extra_w = 200e-6 / ThermalRunOptions{}.period_s;
  EXPECT_LT(priced.mean_temp_c - free_run.mean_temp_c, extra_w * 2.0);
}

TEST(ThermalRuntimeTest, RightShiftCannotFixRowImbalance) {
  // One hot row: right-shift's orbit-average equals the original map
  // row-wise, so the peak barely moves; XY-shift spreads across rows.
  const RcNetwork net = make_net(4);
  SteadyStateSolver steady(net);
  std::vector<double> power(16, 1.0);
  for (int x = 0; x < 4; ++x)
    power[static_cast<std::size_t>(coord_to_index({x, 0}, GridDim{4, 4}))] =
        5.0;
  const double static_peak = steady.peak_die_temperature(power);

  MigrationThermalRuntime runtime(net, ThermalRunOptions{});
  const auto shift_x =
      orbit_permutations(Transform{TransformKind::kShiftX, 1}, GridDim{4, 4});
  const auto shift_xy =
      orbit_permutations(Transform{TransformKind::kShiftXY, 1}, GridDim{4, 4});
  const ThermalRunResult rx = runtime.run(power, shift_x, {});
  const ThermalRunResult rxy = runtime.run(power, shift_xy, {});

  const double dx = static_peak - rx.peak_temp_c;
  const double dxy = static_peak - rxy.peak_temp_c;
  EXPECT_LT(dx, 0.6);        // uniform hot row: nothing to gain in-row
  EXPECT_GT(dxy, 2.0 * dx);  // spreading across rows wins
}

TEST(ThermalRuntimeTest, CenterHotspotImmuneToRotation) {
  // The paper's configuration-E mechanism on a 5x5: rotation fixes the
  // center, so a central hotspot sees no benefit — and with migration
  // energy the peak goes *above* static.
  const RcNetwork net = make_net(5);
  SteadyStateSolver steady(net);
  std::vector<double> power(25, 1.0);
  power[12] = 7.0;  // center
  const double static_peak = steady.peak_die_temperature(power);

  MigrationThermalRuntime runtime(net, ThermalRunOptions{});
  const auto rot =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, GridDim{5, 5});
  const ThermalRunResult free_run = runtime.run(power, rot, {});
  EXPECT_NEAR(free_run.peak_temp_c, static_peak, 0.2);

  std::vector<std::vector<double>> energy(
      rot.size(), std::vector<double>(25, 400e-6 / 25));
  const ThermalRunResult priced = runtime.run(power, rot, energy);
  EXPECT_GT(priced.peak_temp_c, static_peak);

  // XY shift moves the center hotspot and wins despite equal energy.
  const auto sxy =
      orbit_permutations(Transform{TransformKind::kShiftXY, 1}, GridDim{5, 5});
  std::vector<std::vector<double>> energy_xy(
      sxy.size(), std::vector<double>(25, 400e-6 / 25));
  const ThermalRunResult shifted = runtime.run(power, sxy, energy_xy);
  EXPECT_LT(shifted.peak_temp_c, static_peak - 1.0);
}

TEST(ThermalRuntimeTest, InputValidation) {
  const RcNetwork net = make_net(4);
  MigrationThermalRuntime runtime(net, ThermalRunOptions{});
  const auto orbit =
      orbit_permutations(Transform{TransformKind::kMirrorX, 0}, GridDim{4, 4});
  // Wrong power size.
  EXPECT_THROW(runtime.run(std::vector<double>(9, 1.0), orbit, {}),
               CheckError);
  // Wrong number of energy maps.
  EXPECT_THROW(runtime.run(std::vector<double>(16, 1.0), orbit,
                           {std::vector<double>(16, 0.0)}),
               CheckError);
  // Bad options.
  ThermalRunOptions bad;
  bad.period_s = -1;
  EXPECT_THROW(MigrationThermalRuntime(net, bad), CheckError);
}

// --- Engine vs reference oracle ----------------------------------------

void expect_agreement(const ThermalRunResult& engine,
                      const ThermalRunResult& reference, double tol,
                      const std::string& label) {
  EXPECT_NEAR(engine.peak_temp_c, reference.peak_temp_c, tol) << label;
  EXPECT_NEAR(engine.mean_temp_c, reference.mean_temp_c, tol) << label;
  EXPECT_NEAR(engine.ripple_c, reference.ripple_c, tol) << label;
  EXPECT_NEAR(engine.steady_peak_of_avg_c, reference.steady_peak_of_avg_c,
              tol)
      << label;
  EXPECT_EQ(engine.orbits_run, reference.orbits_run) << label;
  EXPECT_EQ(engine.converged, reference.converged) << label;
}

TEST(ThermalRuntimeTest, EngineMatchesReferenceAcrossScenarios) {
  // The streamed engine must agree with the preserved scalar path to
  // <= 1e-10 per field across schemes, periods, and network sizes
  // (side 4 = 58 nodes as in configs A/B, side 6 = 118 nodes), with and
  // without migration energy.
  for (const int side : {4, 6}) {
    const RcNetwork net = make_net(side);
    const int tiles = side * side;
    std::vector<double> power(static_cast<std::size_t>(tiles), 1.0);
    power[0] = 7.0;
    power[static_cast<std::size_t>(tiles / 2)] = 4.0;
    for (const TransformKind kind :
         {TransformKind::kRotation, TransformKind::kShiftXY}) {
      const auto orbit =
          orbit_permutations(Transform{kind, 1}, GridDim{side, side});
      for (const double period : {109.3e-6, 874.4e-6}) {
        ThermalRunOptions opt;
        opt.period_s = period;
        const MigrationThermalRuntime engine(net, opt);
        const ReferenceThermalRuntime reference(net, opt);
        const std::string label =
            "side " + std::to_string(side) + " kind " +
            std::string(to_string(kind)) + " period " +
            std::to_string(period);

        expect_agreement(engine.run(power, orbit, {}),
                         reference.run(power, orbit, {}), 1e-10, label);

        const std::vector<std::vector<double>> energy(
            orbit.size(),
            std::vector<double>(static_cast<std::size_t>(tiles),
                                150e-6 / tiles));
        expect_agreement(engine.run(power, orbit, energy),
                         reference.run(power, orbit, energy), 1e-10,
                         label + " +energy");
      }
    }
  }
}

TEST(ThermalRuntimeTest, EngineMatchesReferenceOnRefinedNetwork) {
  // Refine >= 2 exercises the sparse streamed path on the grid shapes the
  // sweep harness runs (fine nodes = 16 * refine^2).
  const GridDim dim{4, 4};
  for (const int refine : {2, 3}) {
    const RefinedThermalModel model(dim, date05_tile_area(),
                                    date05_hotspot_params(), refine);
    const int fine = model.fine_dim().node_count();
    std::vector<double> tile_power(16, 1.0);
    tile_power[5] = 6.0;
    const std::vector<double> power = model.refine_power(tile_power);
    const auto orbit = orbit_permutations(
        Transform{TransformKind::kRotation, 0}, model.fine_dim());
    (void)fine;
    ThermalRunOptions opt;
    const MigrationThermalRuntime engine(model.network(), opt);
    const ReferenceThermalRuntime reference(model.network(), opt);
    expect_agreement(engine.run(power, orbit, {}),
                     reference.run(power, orbit, {}), 1e-10,
                     "refine " + std::to_string(refine));
  }
}

TEST(ThermalRuntimeTest, StaticCaseBitMatchesReference) {
  // The static shortcut shares the steady solver code path exactly.
  const RcNetwork net = make_net(5);
  const auto power = hot_corner_map(5, 9.0, 1.0);
  const MigrationThermalRuntime engine(net, ThermalRunOptions{});
  const ReferenceThermalRuntime reference(net, ThermalRunOptions{});
  const auto orbit =
      std::vector<std::vector<int>>{identity_permutation(25)};
  const ThermalRunResult re = engine.run(power, orbit, {});
  const ThermalRunResult rr = reference.run(power, orbit, {});
  EXPECT_EQ(re.peak_temp_c, rr.peak_temp_c);
  EXPECT_EQ(re.mean_temp_c, rr.mean_temp_c);
  EXPECT_EQ(re.steady_peak_of_avg_c, rr.steady_peak_of_avg_c);
  EXPECT_EQ(re.orbits_run, 0);
  EXPECT_TRUE(re.converged);
}

TEST(ThermalRuntimeTest, WorkspacesAreStateless) {
  // Two runtimes with interleaved run() calls — and a runtime whose runs
  // alternate between two different problems — must reproduce the results
  // of fresh runtimes exactly: the persistent workspaces carry no state
  // between runs.
  const RcNetwork net = make_net(6);
  const auto power_a = hot_corner_map(6, 8.0, 1.0);
  std::vector<double> power_b(36, 1.0);
  power_b[21] = 6.0;
  const auto orbit_rot =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, GridDim{6, 6});
  const auto orbit_shift =
      orbit_permutations(Transform{TransformKind::kShiftXY, 1}, GridDim{6, 6});

  ThermalRunOptions opt;
  const MigrationThermalRuntime fresh_a(net, opt);
  const MigrationThermalRuntime fresh_b(net, opt);
  const ThermalRunResult ra = fresh_a.run(power_a, orbit_rot, {});
  const ThermalRunResult rb = fresh_b.run(power_b, orbit_shift, {});

  const MigrationThermalRuntime shared(net, opt);
  const MigrationThermalRuntime other(net, opt);
  for (int rep = 0; rep < 2; ++rep) {
    // Interleave two problems through one runtime (workspace reuse with
    // different orbits/maps) and a second runtime in between.
    const ThermalRunResult a = shared.run(power_a, orbit_rot, {});
    const ThermalRunResult o = other.run(power_a, orbit_rot, {});
    const ThermalRunResult b = shared.run(power_b, orbit_shift, {});
    EXPECT_EQ(a.peak_temp_c, ra.peak_temp_c) << "rep " << rep;
    EXPECT_EQ(a.mean_temp_c, ra.mean_temp_c) << "rep " << rep;
    EXPECT_EQ(a.ripple_c, ra.ripple_c) << "rep " << rep;
    EXPECT_EQ(o.peak_temp_c, ra.peak_temp_c) << "rep " << rep;
    EXPECT_EQ(b.peak_temp_c, rb.peak_temp_c) << "rep " << rep;
    EXPECT_EQ(b.mean_temp_c, rb.mean_temp_c) << "rep " << rep;
    EXPECT_EQ(b.orbits_run, rb.orbits_run) << "rep " << rep;
  }
}

TEST(ThermalRuntimeTest, OrbitAveragePowerConservedAcrossSchemes) {
  // Permutations only move power around: every scheme's orbit-averaged
  // total power equals the base total (migration energy aside). This is
  // the invariant that makes scheme comparisons fair.
  const auto power = hot_corner_map(5, 9.0, 0.7);
  const double base_total = total_power(power);
  for (MigrationScheme s : figure1_schemes()) {
    const auto orbit = orbit_permutations(transform_of(s), GridDim{5, 5});
    std::vector<double> avg(power.size(), 0.0);
    for (const auto& perm : orbit) {
      const auto moved = apply_permutation(power, perm);
      for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += moved[i];
    }
    for (auto& v : avg) v /= static_cast<double>(orbit.size());
    EXPECT_NEAR(total_power(avg), base_total, 1e-9) << to_string(s);
  }
}

}  // namespace
}  // namespace renoc
