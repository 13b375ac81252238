// Tests for the migration thermal co-simulation: consistency with steady
// state, orbit-average behaviour, ripple magnitude, and migration-energy
// accounting.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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
  // Step counts that do not fit in int: 1e10 steps per period, and an
  // infinite period.
  ThermalRunOptions too_many_steps;
  too_many_steps.period_s = 1.0;
  too_many_steps.dt_s = 1e-10;
  EXPECT_THROW(MigrationThermalRuntime(net, too_many_steps), CheckError);
  ThermalRunOptions infinite_period;
  infinite_period.period_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(MigrationThermalRuntime(net, infinite_period), CheckError);
  // A batch needs one result slot per job.
  const ThermalJob job{&orbit, nullptr};
  ThermalRunResult results[2];
  EXPECT_THROW(runtime.run_batch(std::vector<double>(16, 1.0), {&job, 1},
                                 results),
               CheckError);
}

// --- Bit pins and batch equivalence --------------------------------------

/// One pinned co-simulation: the case it runs and its result's bits.
struct PinnedRun {
  int net;     // 0: 4x4 tiles (58 nodes), 1: 5x5 (85), 2: 4x4 refined x2 (202)
  int orbit;   // 0: rotation, 1: mirror-X, 2: X-Y shift by 1
  int period;  // 0: 109.3 us, 1: 874.4 us
  int energy;  // 0: none, 1: 150 uJ per migration, spread uniformly
  std::uint64_t peak_bits;
  std::uint64_t mean_bits;
  std::uint64_t ripple_bits;
  std::uint64_t steady_peak_bits;
  int orbits_run;
  bool converged;
};

TEST(ThermalRuntimeTest, EngineBitsMatchParent) {
  // Every ThermalRunResult field, as the engine computed it before the
  // lockstep batch landed (one column per run, column-oriented forward
  // sweep), pinned bit for bit: the batch kernel must not change a single
  // rounding of a lone run.
  static constexpr PinnedRun kPinned[] = {
      {0, 0, 0, 0, 0x404cde812b305f5eu, 0x404b3a7201adc25cu, 0x3fb7b39c0b471c00u, 0x404ccd7d704d7d4bu, 30, true},
      {0, 0, 0, 1, 0x404d3543faaf8a46u, 0x404b935dec7d6130u, 0x3fb7cf8a0973ba00u, 0x404d24312983691cu, 31, true},
      {0, 0, 1, 0, 0x404d3d8b16ad8aabu, 0x404b3a7201ade06fu, 0x3fdd82f4bc720980u, 0x404ccd7d704d7d4bu, 22, true},
      {0, 0, 1, 1, 0x404d48736bb34f0au, 0x404b4596db139737u, 0x3fdd98ead2f5b480u, 0x404cd853e7743ac4u, 22, true},
      {0, 1, 0, 0, 0x404ff2aaf256dbcau, 0x404b3a7201adc609u, 0x3fbb5f088415bc00u, 0x404fe4e967cc1dccu, 17, true},
      {0, 1, 0, 1, 0x405024bd570e243eu, 0x404b936dabe79fbcu, 0x3fbb8f97ce4efc00u, 0x40501dce908104d0u, 17, true},
      {0, 1, 1, 0, 0x40501531b08f9291u, 0x404b3a7201add332u, 0x3fe15cf7ab941f00u, 0x404fe4e967cc1dccu, 31, true},
      {0, 1, 1, 1, 0x40501a95302c6294u, 0x404b459ad134fab6u, 0x3fe1580737045880u, 0x404fefbfdef2db48u, 31, true},
      {0, 2, 0, 0, 0x404c7538b5dfa4bdu, 0x404b4401f239456bu, 0x3fbf9f662ab0d200u, 0x404c63f32cdbf69fu, 31, true},
      {0, 2, 0, 1, 0x404ccbf84559bbeeu, 0x404b9ced6332a6b3u, 0x3fb965944c48ee00u, 0x404cbaa6e611e270u, 32, true},
      {0, 2, 1, 0, 0x404cd6b7f15ca9b0u, 0x404b4401d92af2dbu, 0x3fe0c0769de1dc00u, 0x404c63f32cdbf69fu, 22, true},
      {0, 2, 1, 1, 0x404ce19da71372acu, 0x404b4f26b290bff1u, 0x3fe0a76e4fddd500u, 0x404c6ec9a402b418u, 22, true},
      {1, 0, 0, 0, 0x404fd125ebfb9446u, 0x404b6402f83d1571u, 0x0000000000000000u, 0x404fd125ebfb9442u, 3, true},
      {1, 0, 0, 1, 0x40500a2e9c99eccbu, 0x404ba4cd7ca05640u, 0x3f65947350a68000u, 0x40500a0719dff652u, 3, true},
      {1, 0, 1, 0, 0x404fd125ebfb9442u, 0x404b6402f83d1456u, 0x0000000000000000u, 0x404fd125ebfb9442u, 3, true},
      {1, 0, 1, 1, 0x404fd9c438168715u, 0x404b6c312e649f6au, 0x3f668f9cd99e4000u, 0x404fd982f4f41f4eu, 3, true},
      {1, 1, 0, 0, 0x40505446e4cc2b64u, 0x404b6402f83d15f3u, 0x3fbaba400558e000u, 0x40504d9236a140beu, 17, true},
      {1, 1, 0, 1, 0x40507391ee129d4eu, 0x404ba4c8b3f31220u, 0x3fba836fa26ef800u, 0x40506ce1ff0b0749u, 17, true},
      {1, 1, 1, 0, 0x40506f7f81d91ecau, 0x404b6402f83d0953u, 0x3fe0f6594005b900u, 0x40504d9236a140beu, 30, true},
      {1, 1, 1, 1, 0x40507355d6957a60u, 0x404b6c2200ad454du, 0x3fe0eb6fdd103100u, 0x4050517c2fae798fu, 30, true},
      {1, 2, 0, 0, 0x404e3501a327a734u, 0x404b68983bddea3au, 0x3fc33a3d45c1f500u, 0x404e251d436bf8beu, 25, true},
      {1, 2, 0, 1, 0x404e738c41c27d32u, 0x404ba95370765597u, 0x3fc2f20553803700u, 0x404e63bcd43f85d2u, 26, true},
      {1, 2, 1, 0, 0x404e915428b86e44u, 0x404b68992adb7ab9u, 0x3fefd0bc2af677c0u, 0x404e251d436bf8beu, 17, true},
      {1, 2, 1, 1, 0x404e991da2f012b4u, 0x404b70b5a7ee6efeu, 0x3fefc676cf65b200u, 0x404e2cf135866a62u, 17, true},
      {2, 0, 0, 0, 0x4057f906725fcc7eu, 0x40552062431c8408u, 0x3fd03876882b0000u, 0x4057dca53db532bfu, 51, true},
      {2, 0, 0, 1, 0x4058234aa1399379u, 0x40554c9ce88b8091u, 0x3fd0266563b01d00u, 0x40580703ff4cd626u, 51, true},
      {2, 0, 1, 0, 0x4058bc7050b54d52u, 0x40552062431c823au, 0x3fffb834c1e79300u, 0x4057dca53db532bfu, 22, true},
      {2, 0, 1, 1, 0x4058c19c36075de2u, 0x405525edba975aa5u, 0x3fffb2e76bc14700u, 0x4057e1f115e8272bu, 22, true},
      {2, 1, 0, 0, 0x405bcc29671e26e8u, 0x40552062431c872eu, 0x3fd3f2ab8c772000u, 0x405bb82c80bde18bu, 60, true},
      {2, 1, 0, 1, 0x405bf6723b241c0fu, 0x40554ca1016673ecu, 0x3fd3d5972b999d00u, 0x405be28b425584f3u, 60, true},
      {2, 1, 1, 0, 0x405c4409ddf0896fu, 0x40552062431c8262u, 0x40017817d3b3c140u, 0x405bb82c80bde18bu, 33, true},
      {2, 1, 1, 1, 0x405c493656af8dc5u, 0x405525ef5474ca9cu, 0x400173c9b6baf720u, 0x405bbd7858f0d5f7u, 33, true},
      {2, 2, 0, 0, 0x40569b17f296dcf2u, 0x405528d327cdb6a7u, 0x3feb5d8015af0a80u, 0x40567a37124fbc0cu, 15, true},
      {2, 2, 0, 1, 0x4056c8dc7cb76992u, 0x40555511e617a3c4u, 0x3feb7124dd25ef00u, 0x4056a7fa2c74c2adu, 15, true},
      {2, 2, 1, 0, 0x4057a1fbcccf4c03u, 0x405528d3a7003e7au, 0x4008c0f24a09d4c0u, 0x40567a37124fbc0cu, 11, true},
      {2, 2, 1, 1, 0x4057a794a979b6b3u, 0x40552e5f1e7b0313u, 0x4008c63cd27f07e0u, 0x40567fef75945cddu, 11, true},
  };
  const RcNetwork net4 = make_net(4);
  const RcNetwork net5 = make_net(5);
  const RefinedThermalModel refined(GridDim{4, 4}, date05_tile_area(),
                                    date05_hotspot_params(), 2);
  const RcNetwork* nets[] = {&net4, &net5, &refined.network()};
  const GridDim dims[] = {GridDim{4, 4}, GridDim{5, 5}, refined.fine_dim()};
  const Transform transforms[] = {Transform{TransformKind::kRotation, 0},
                                  Transform{TransformKind::kMirrorX, 0},
                                  Transform{TransformKind::kShiftXY, 1}};
  const double periods[] = {109.3e-6, 874.4e-6};
  ASSERT_EQ(nets[2]->node_count(), 202);

  for (const PinnedRun& pin : kPinned) {
    const RcNetwork& net = *nets[pin.net];
    const int die = net.die_count();
    const auto ud = static_cast<std::size_t>(die);
    std::vector<double> power(ud);
    for (std::size_t i = 0; i < ud; ++i)
      power[i] = 1.0 + 0.125 * static_cast<double>(i % 5);
    power[0] = 7.0;
    power[ud / 2] += 3.0;
    const auto orbit =
        orbit_permutations(transforms[pin.orbit], dims[pin.net]);
    std::vector<std::vector<double>> energy;
    if (pin.energy == 1)
      energy.assign(orbit.size(), std::vector<double>(ud, 150e-6 / die));
    ThermalRunOptions opt;
    opt.period_s = periods[pin.period];
    const MigrationThermalRuntime runtime(net, opt);
    const ThermalRunResult r = runtime.run(power, orbit, energy);

    const std::string label =
        "net " + std::to_string(pin.net) + " orbit " +
        std::to_string(pin.orbit) + " period " + std::to_string(pin.period) +
        " energy " + std::to_string(pin.energy);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.peak_temp_c), pin.peak_bits)
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_temp_c), pin.mean_bits)
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.ripple_c), pin.ripple_bits)
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.steady_peak_of_avg_c),
              pin.steady_peak_bits)
        << label;
    EXPECT_EQ(r.orbits_run, pin.orbits_run) << label;
    EXPECT_EQ(r.converged, pin.converged) << label;
  }
}

/// Powers of a permutation that cycles tiles 0 .. length-1: an orbit of
/// exactly `length` segments on any grid of at least that many tiles.
std::vector<std::vector<int>> cycle_orbit(int tiles, int length) {
  std::vector<int> step = identity_permutation(tiles);
  for (int i = 0; i < length; ++i)
    step[static_cast<std::size_t>(i)] = (i + 1) % length;
  std::vector<std::vector<int>> orbit{identity_permutation(tiles)};
  for (int k = 1; k < length; ++k)
    orbit.push_back(compose_permutations(orbit.back(), step));
  return orbit;
}

void expect_bit_equal(const ThermalRunResult& got,
                      const ThermalRunResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.peak_temp_c, want.peak_temp_c) << label;
  EXPECT_EQ(got.mean_temp_c, want.mean_temp_c) << label;
  EXPECT_EQ(got.ripple_c, want.ripple_c) << label;
  EXPECT_EQ(got.steady_peak_of_avg_c, want.steady_peak_of_avg_c) << label;
  EXPECT_EQ(got.orbits_run, want.orbits_run) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
}

TEST(ThermalRuntimeTest, BatchBitMatchesLoneRuns) {
  // A lockstep batch mixing orbit lengths 1 to 5, jobs with and without
  // migration energy, a static job and a repeated job — 12 jobs, more
  // than the kernel's 8-column group — must reproduce each job's lone
  // run() exactly. Jobs converge after different orbit counts, so columns
  // leave the block at different segment ends; the second runtime stops
  // every job at max_orbits instead.
  const RcNetwork net = make_net(5);
  const GridDim dim{5, 5};
  std::vector<double> power(25, 1.0);
  power[3] = 8.0;
  power[17] = 5.0;
  const auto uniform = [](std::size_t maps, double joules) {
    return std::vector<std::vector<double>>(
        maps, std::vector<double>(25, joules / 25));
  };
  std::vector<std::vector<double>> skewed = uniform(5, 120e-6);
  for (std::size_t k = 0; k < skewed.size(); ++k)
    skewed[k][k] += 40e-6;

  // Orbit lengths: rotation 4, mirror 2, shift 5.
  const auto rot =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, dim);
  const auto mirror =
      orbit_permutations(Transform{TransformKind::kMirrorX, 0}, dim);
  const auto shift_x =
      orbit_permutations(Transform{TransformKind::kShiftX, 1}, dim);
  const auto cycle3 = cycle_orbit(25, 3);
  const auto cycle5 = cycle_orbit(25, 5);
  const std::vector<std::vector<int>> identity{identity_permutation(25)};
  const auto rot_energy = uniform(rot.size(), 200e-6);
  const auto mirror_energy = uniform(mirror.size(), 90e-6);
  const auto shift_energy = uniform(shift_x.size(), 150e-6);
  const auto cycle3_energy = uniform(3, 60e-6);
  const auto identity_energy = uniform(1, 100e-6);
  ASSERT_EQ(rot.size(), 4u);
  ASSERT_EQ(mirror.size(), 2u);
  ASSERT_EQ(shift_x.size(), 5u);

  const std::vector<ThermalJob> jobs{
      {&rot, nullptr},
      {&rot, &rot_energy},
      {&identity, nullptr},  // static
      {&mirror, &mirror_energy},
      {&cycle3, nullptr},
      {&shift_x, &shift_energy},
      {&identity, &identity_energy},  // one segment, spiked
      {&rot, &rot_energy},            // repeat of job 1
      {&cycle5, &skewed},
      {&mirror, nullptr},
      {&cycle3, &cycle3_energy},
      {&shift_x, nullptr},
  };
  ASSERT_GT(jobs.size(), 8u);

  ThermalRunOptions capped;
  capped.min_orbits = 2;
  capped.max_orbits = 3;
  capped.tol_c = 1e-12;
  for (const ThermalRunOptions& opt : {ThermalRunOptions{}, capped}) {
    const MigrationThermalRuntime runtime(net, opt);
    std::vector<ThermalRunResult> lone;
    for (const ThermalJob& job : jobs)
      lone.push_back(runtime.run(power, *job.orbit,
                                 job.migration_energy != nullptr
                                     ? *job.migration_energy
                                     : std::vector<std::vector<double>>{}));
    // The whole batch, then its first five jobs on their own.
    for (const std::size_t count : {jobs.size(), std::size_t{5}}) {
      std::vector<ThermalRunResult> batch(count);
      runtime.run_batch(power, {jobs.data(), count}, batch);
      for (std::size_t j = 0; j < count; ++j)
        expect_bit_equal(batch[j], lone[j],
                         "max_orbits " + std::to_string(opt.max_orbits) +
                             " batch of " + std::to_string(count) +
                             " job " + std::to_string(j));
    }
    if (opt.max_orbits == capped.max_orbits) {
      EXPECT_EQ(lone[0].orbits_run, 3);
      EXPECT_FALSE(lone[0].converged);
    }
  }
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
