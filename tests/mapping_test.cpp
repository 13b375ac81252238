// Tests for the thermally-aware simulated-annealing placer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <set>

#include "core/chip_config.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "mapping/placer.hpp"
#include "support/reference_placer.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

struct Env {
  Floorplan fp;
  RcNetwork net;
  SteadyStateSolver solver;
  GridDim dim;

  explicit Env(int side)
      : fp(make_grid_floorplan(GridDim{side, side}, date05_tile_area())),
        net(build_rc_network(fp, date05_hotspot_params())),
        solver(net),
        dim{side, side} {}
};

std::vector<std::vector<std::uint64_t>> no_traffic(int k) {
  return std::vector<std::vector<std::uint64_t>>(
      static_cast<std::size_t>(k),
      std::vector<std::uint64_t>(static_cast<std::size_t>(k), 0));
}

TEST(PlacerTest, PlacementIsInjective) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 3000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(16, 1.0);
  power[0] = 6.0;
  power[1] = 6.0;
  const PlacementResult res = placer.place(power, no_traffic(16));
  std::set<int> tiles(res.placement.begin(), res.placement.end());
  EXPECT_EQ(tiles.size(), res.placement.size());
  for (int t : res.placement) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 16);
  }
}

TEST(PlacerTest, SeparatesTwoHotClusters) {
  // Two hot clusters placed adjacently at identity must end up apart.
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 8000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(16, 0.5);
  power[0] = 8.0;
  power[1] = 8.0;
  const PlacementResult res = placer.place(power, no_traffic(16));
  const GridCoord a = index_to_coord(res.placement[0], env.dim);
  const GridCoord b = index_to_coord(res.placement[1], env.dim);
  EXPECT_GE(manhattan(a, b), 2);
  // And the peak temperature beats the identity placement.
  const double identity_peak = placer.peak_temperature_of(
      identity_permutation(16), power);
  EXPECT_LT(res.peak_temperature, identity_peak);
}

TEST(PlacerTest, NeverWorseThanIdentityStart) {
  // SA keeps the best-seen placement, so the result cannot be worse than
  // the identity it starts from.
  Env env(5);
  PlacerOptions opt;
  opt.iterations = 2000;
  opt.seed = 7;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  Rng rng(3);
  std::vector<double> power(25);
  for (auto& p : power) p = 0.5 + 4.0 * rng.next_double();
  const double identity_cost =
      ReferencePlacer(env.solver, env.dim, opt)
          .cost_of(identity_permutation(25), power, no_traffic(25));
  const PlacementResult res = placer.place(power, no_traffic(25));
  EXPECT_LE(res.cost, identity_cost + 1e-9);
}

TEST(PlacerTest, DeterministicForSeed) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 2000;
  opt.seed = 42;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(16, 1.0);
  power[5] = 9.0;
  const auto a = placer.place(power, no_traffic(16));
  const auto b = placer.place(power, no_traffic(16));
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(PlacerTest, CommWeightPullsChattyClustersTogether) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 12000;
  opt.comm_weight = 0.05;  // strong communication pressure
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  // Uniform power so only traffic matters.
  std::vector<double> power(16, 1.0);
  auto traffic = no_traffic(16);
  traffic[2][11] = traffic[11][2] = 10000;
  const PlacementResult res = placer.place(power, traffic);
  const GridCoord a = index_to_coord(res.placement[2], env.dim);
  const GridCoord b = index_to_coord(res.placement[11], env.dim);
  EXPECT_EQ(manhattan(a, b), 1);
}

TEST(PlacerTest, HotClusterMovesOffCenterWithoutTraffic) {
  // With a single dominant cluster and no communication, the thermally
  // best home is away from the die center (corners couple to cooler
  // neighbors... actually corners have fewer hot neighbours and more
  // boundary; verify the placer strictly improves peak temperature and
  // does not leave the hot cluster at the center).
  Env env(5);
  PlacerOptions opt;
  opt.iterations = 10000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(25, 1.2);
  power[12] = 10.0;  // start at the center tile
  const PlacementResult res = placer.place(power, no_traffic(25));
  EXPECT_NE(res.placement[12], 12);
}

TEST(PlacerTest, ZeroIterationsReturnsIdentity) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 0;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(16, 1.0);
  const PlacementResult res = placer.place(power, no_traffic(16));
  EXPECT_EQ(res.placement, identity_permutation(16));
}

TEST(PlacerTest, FewerClustersThanTiles) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 3000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(10, 2.0);
  power[0] = 7.0;
  const PlacementResult res = placer.place(power, no_traffic(10));
  EXPECT_EQ(res.placement.size(), 10u);
  std::set<int> tiles(res.placement.begin(), res.placement.end());
  EXPECT_EQ(tiles.size(), 10u);
}

TEST(PlacerTest, BeatsRandomSearchBaseline) {
  // SA must at least match the best of an equal-budget random search —
  // the standard sanity bar for any annealer.
  Env env(4);
  Rng rng(71);
  std::vector<double> power(16);
  for (auto& p : power) p = 0.5 + 5.0 * rng.next_double();

  PlacerOptions opt;
  opt.iterations = 4000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  const PlacementResult sa = placer.place(power, no_traffic(16));

  double best_random = 1e300;
  std::vector<int> perm(16);
  for (int i = 0; i < 16; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int trial = 0; trial < 4000; ++trial) {
    for (int i = 15; i > 0; --i) {
      const int j = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(i + 1)));
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
    best_random = std::min(
        best_random, placer.peak_temperature_of(perm, power));
  }
  EXPECT_LE(sa.peak_temperature, best_random + 0.05);
}

TEST(PlacerTest, PinsRespectedUnderPressure) {
  // Pin the hottest cluster to the center — the worst thermal spot — and
  // verify the annealer still leaves it there.
  Env env(5);
  PlacerOptions opt;
  opt.iterations = 5000;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(25, 1.0);
  power[3] = 9.0;
  const int center = coord_to_index({2, 2}, env.dim);
  const PlacementResult res =
      placer.place(power, no_traffic(25), {{3, center}});
  EXPECT_EQ(res.placement[3], center);
  // Everyone else still occupies distinct tiles.
  std::set<int> tiles(res.placement.begin(), res.placement.end());
  EXPECT_EQ(tiles.size(), res.placement.size());
}

TEST(PlacerTest, ConflictingPinsRejected) {
  Env env(4);
  ThermalAwarePlacer placer(env.solver, env.dim, PlacerOptions{});
  std::vector<double> power(16, 1.0);
  EXPECT_THROW(placer.place(power, no_traffic(16), {{0, 3}, {1, 3}}),
               CheckError);
  EXPECT_THROW(placer.place(power, no_traffic(16), {{0, 3}, {0, 5}}),
               CheckError);
  EXPECT_THROW(placer.place(power, no_traffic(16), {{0, 99}}), CheckError);
}

TEST(PlacerTest, MismatchedInputsRejected) {
  Env env(4);
  PlacerOptions opt;
  opt.iterations = 200;
  ThermalAwarePlacer placer(env.solver, env.dim, opt);
  std::vector<double> power(20, 1.0);  // more clusters than tiles
  EXPECT_THROW(placer.place(power, no_traffic(20)), CheckError);

  // A traffic row longer or shorter than the cluster count.
  const std::vector<double> power16(16, 1.0);
  auto long_row = no_traffic(16);
  long_row[3].push_back(5);
  EXPECT_THROW(placer.place(power16, long_row), CheckError);
  auto short_row = no_traffic(16);
  short_row[7].pop_back();
  EXPECT_THROW(placer.place(power16, short_row), CheckError);

  // A placement that does not cover every powered cluster.
  const std::vector<int> short_placement = identity_permutation(12);
  EXPECT_THROW(placer.peak_temperature_of(short_placement, power16),
               CheckError);

  // Total traffic times the 6-hop diameter of the 4x4 mesh must stay
  // below 2^53, the limit of exact integer sums in a double.
  auto heavy = no_traffic(16);
  heavy[0][15] = ((std::uint64_t{1} << 53) - 1) / 6;
  EXPECT_NO_THROW(placer.place(power16, heavy));
  heavy[15][0] = 1;
  EXPECT_THROW(placer.place(power16, heavy), CheckError);
  auto huge = no_traffic(16);
  huge[1][2] = 7;
  huge[2][1] = ~std::uint64_t{0};  // the check itself must not wrap
  EXPECT_THROW(placer.place(power16, huge), CheckError);
}

// --- The incremental anneal against the full-recompute oracle -------------

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const PlacementResult& got, const PlacementResult& want) {
  EXPECT_EQ(got.placement, want.placement);
  EXPECT_EQ(bits_of(got.peak_temperature), bits_of(want.peak_temperature));
  EXPECT_EQ(bits_of(got.comm_cost), bits_of(want.comm_cost));
  EXPECT_EQ(bits_of(got.cost), bits_of(want.cost));
  EXPECT_EQ(got.improving_moves, want.improving_moves);
}

struct Instance {
  std::vector<double> power;
  std::vector<std::vector<std::uint64_t>> traffic;
  std::vector<ThermalAwarePlacer::Pin> pins;
};

/// `clusters` clusters with asymmetric traffic (self-traffic included) and
/// `pin_count` pins on distinct tiles. Repeated power draws from a small
/// palette that includes zero, so equal-power swaps (and zero-power moves
/// into empty tiles) occur; otherwise every cluster's power is distinct.
Instance random_instance(int tiles, int clusters, int pin_count,
                         bool repeated_power, Rng& rng) {
  const auto uc = static_cast<std::size_t>(clusters);
  constexpr double kPalette[] = {0.0, 0.5, 0.5, 1.25, 3.0};
  Instance in;
  in.power.resize(uc);
  for (double& p : in.power)
    p = repeated_power ? kPalette[rng.next_index(std::size(kPalette))]
                       : 0.25 + 4.0 * rng.next_double();
  in.traffic = no_traffic(clusters);
  for (auto& row : in.traffic)
    for (auto& v : row)
      if (rng.next_double() < 0.3) v = 1 + rng.next_below(300);
  std::vector<int> pin_tiles = identity_permutation(tiles);
  for (int i = 0; i < pin_count; ++i) {
    const auto pick =
        static_cast<std::size_t>(i) +
        rng.next_index(pin_tiles.size() - static_cast<std::size_t>(i));
    std::swap(pin_tiles[static_cast<std::size_t>(i)], pin_tiles[pick]);
    in.pins.push_back({i * 2, pin_tiles[static_cast<std::size_t>(i)]});
  }
  return in;
}

/// Every combination of cluster count (full, four short of full), pins
/// (none, three), power (repeated, distinct) and comm_weight (0, 1e-3) on
/// one mesh, each compared bit for bit against the oracle.
void check_mesh_against_oracle(const GridDim& dim) {
  const Floorplan fp = make_grid_floorplan(dim, date05_tile_area());
  const RcNetwork net = build_rc_network(fp, date05_hotspot_params());
  const SteadyStateSolver solver(net);
  const int tiles = dim.node_count();
  Rng rng(static_cast<std::uint64_t>(1000 + tiles));
  for (const int clusters : {tiles, tiles - 4})
    for (const int pin_count : {0, 3})
      for (const bool repeated : {true, false})
        for (const double comm_weight : {0.0, 1e-3}) {
          SCOPED_TRACE(testing::Message()
                       << to_string(dim) << " clusters " << clusters
                       << " pins " << pin_count << " repeated " << repeated
                       << " comm_weight " << comm_weight);
          const Instance in =
              random_instance(tiles, clusters, pin_count, repeated, rng);
          PlacerOptions opt;
          opt.iterations = 1500;
          opt.comm_weight = comm_weight;
          opt.seed = rng.next_u64();
          const PlacementResult got =
              ThermalAwarePlacer(solver, dim, opt)
                  .place(in.power, in.traffic, in.pins);
          const PlacementResult want = ReferencePlacer(solver, dim, opt)
                                           .place(in.power, in.traffic,
                                                  in.pins);
          expect_identical(got, want);
        }
}

TEST(PlacerEquivalence, Mesh4x4MatchesOracle) {
  check_mesh_against_oracle({4, 4});
}

TEST(PlacerEquivalence, Mesh5x5MatchesOracle) {
  check_mesh_against_oracle({5, 5});
}

TEST(PlacerEquivalence, Mesh3x5MatchesOracle) {
  check_mesh_against_oracle({3, 5});
}

/// What the full-recompute anneal produced for the five paper chips at
/// their 20,000-move settings; the incremental one must reproduce it.
struct PinnedPlacement {
  ChipConfig (*config)();
  int improving_moves;
  std::uint64_t peak_bits;
  std::uint64_t cost_bits;
  double comm_cost;
  std::vector<int> placement;
};

TEST(PlacerEquivalence, PaperConfigsMatchRecordedAnneal) {
  const PinnedPlacement pinned[] = {
      {config_A, 7238, 0x404420d801a31a39, 0x40532aeafaacafee, 36414,
       {0, 1, 2, 3, 6, 5, 13, 9, 8, 4, 10, 11, 12, 14, 7, 15}},
      {config_B, 4132, 0x40441cee0ffb6f4e, 0x4052020c8903dc84, 31806,
       {0, 1, 3, 2, 6, 5, 7, 9, 11, 4, 10, 8, 12, 13, 14, 15}},
      {config_C, 3673, 0x404416f569d623c8, 0x40533ca19e63e6e2, 36768,
       {20, 21, 24, 23, 19, 22, 4, 9, 17, 1, 10, 11, 12,
        13, 14, 3, 8, 7, 18, 2, 0, 15, 6, 16, 5}},
      {config_D, 4026, 0x404415cf57521e03, 0x40538068b1cdec30, 37836,
       {24, 22, 21, 20, 15, 5, 6, 7, 8, 9, 10, 11, 12,
        13, 14, 0, 1, 16, 2, 17, 18, 23, 3, 4, 19}},
      {config_E, 3868, 0x404416b36cbb9370, 0x405321e0e15fd602, 36352,
       {22, 23, 24, 19, 4, 9, 3, 8, 2, 18, 10, 11, 12,
        13, 14, 7, 1, 17, 21, 20, 0, 5, 16, 15, 6}},
  };
  for (const PinnedPlacement& want : pinned) {
    const ChipConfig cfg = want.config();
    SCOPED_TRACE("config " + cfg.name);
    const BuiltChip chip = build_chip(cfg);
    const RcNetwork net = build_rc_network(chip.floorplan, cfg.hotspot);
    const SteadyStateSolver solver(net);
    const PlacementResult got =
        ThermalAwarePlacer(solver, cfg.dim, cfg.placer)
            .place(chip.compute_power_estimate, chip.traffic,
                   cfg.workload.pins);
    EXPECT_EQ(got.placement, want.placement);
    EXPECT_EQ(got.improving_moves, want.improving_moves);
    EXPECT_EQ(bits_of(got.peak_temperature), want.peak_bits);
    EXPECT_EQ(bits_of(got.cost), want.cost_bits);
    EXPECT_EQ(got.comm_cost, want.comm_cost);
  }
}

}  // namespace
}  // namespace renoc
