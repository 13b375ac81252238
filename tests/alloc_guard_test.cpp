// AllocGuard subsystem tests + the steady-state zero-allocation pins.
//
// The engine contract (PRs 3–5) is that every *warmed* hot path performs
// zero heap allocations: Fabric::step() under a periodic recycled load,
// MinSumDecoder::decode_into() with a reused result, a warmed
// MigrationThermalRuntime::run() at 58 and 202 nodes and a warmed 5-job
// run_batch(), and the sparse steady/transient solve paths. A warmed
// NocLdpcDecoder::decode_block() allocates exactly once, for the result it
// returns, and ThermalAwarePlacer::place() allocates only at setup, as
// many times at 200 anneal moves as at 5,000. These suites pin the
// invariant in every CI configuration (Debug, Release, every sanitizer
// build) through the test-only allocation guard.
//
// Linking renoc_test_support pulls the counting operator new/delete into
// this binary (see support/alloc_guard.hpp), so the measurements here are
// real allocation counts.
#include "support/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/chip_config.hpp"
#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "floorplan/floorplan.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "mapping/placer.hpp"
#include "noc/fabric.hpp"
#include "support/helpers.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

// --- Guard mechanics -------------------------------------------------------

TEST(AllocGuardTest, CountsAndSizesAllocations) {
  const AllocGuard guard;
  {
    std::vector<char> v;
    v.reserve(1024);
  }
  EXPECT_GE(guard.count(), 1);
  EXPECT_GE(guard.bytes(), 1024);
}

TEST(AllocGuardTest, QuietScopeCountsZero) {
  std::vector<int> v(16, 7);
  const AllocGuard guard;
  long long sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 112);
  EXPECT_EQ(guard.count(), 0);
  EXPECT_EQ(guard.bytes(), 0);
  guard.check_zero("quiet scope");  // must not throw
}

TEST(AllocGuardTest, CheckZeroThrowsOnAllocation) {
  const AllocGuard guard;
  std::vector<char> v(64);
  EXPECT_THROW(guard.check_zero("allocating scope"), CheckError);
}

TEST(AllocGuardTest, TotalsAdvanceMonotonically) {
  const AllocTotals before = alloc_guard::totals();
  std::vector<char> v(128);
  const AllocTotals after = alloc_guard::totals();
  EXPECT_GT(after.count, before.count);
  EXPECT_GE(after.bytes - before.bytes, 128);
}

// --- Engine pins: warmed hot paths must not allocate -----------------------

// A deterministic periodic load: every node sends a 4-word message east
// every 6 cycles and every delivery is recycled, so pool/ring/staging
// demand is exactly periodic and one warm-up period reaches every
// high-water mark. (A stochastic load would keep finding new queue-tail
// maxima, making the pin probabilistic.) Node 5 empties its pooled buffer
// before each send: an empty message travels as one flit and arrives as
// one zero word, the only payload word the fabric itself writes.
TEST(EngineAllocTest, WarmedFabricStepLoopIsAllocationFree) {
  NocConfig cfg;
  cfg.dim = GridDim{4, 4};
  Fabric fabric(cfg);
  const int n = fabric.node_count();
  const GridDim dim = fabric.config().dim;
  auto pump = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      if (c % 6 == 0) {
        for (int src = 0; src < n; ++src) {
          const GridCoord co = index_to_coord(src, dim);
          Message m = fabric.acquire_message();
          m.src = src;
          m.dst = coord_to_index({(co.x + 1) % dim.width, co.y}, dim);
          m.tag = static_cast<std::uint64_t>(c);
          m.payload.assign(4, 0xa5a5a5a5ULL);
          if (src == 5) m.payload.clear();
          fabric.send(std::move(m));
        }
      }
      fabric.step();
      for (int node = 0; node < n; ++node)
        while (auto msg = fabric.try_receive(node))
          fabric.recycle(std::move(*msg));
    }
  };
  pump(240);  // warm-up: pool, rings, staging at high water
  const AllocGuard guard;
  pump(240);
  guard.check_zero("warmed Fabric::step traffic loop");
  EXPECT_EQ(guard.count(), 0);
}

// A warmed cycle-accurate block decode allocates once: the hard_bits of
// the result it returns. Message payloads circulate through the fabric's
// recycling pool, and the decoder grows a short pooled buffer to its
// largest message, so two warm-up blocks reach every high-water mark.
TEST(EngineAllocTest, WarmedNocDecodeBlockAllocatesOnlyItsResult) {
  const ChipConfig cfg = config_A();
  const BuiltChip chip = build_chip(cfg);
  Fabric fabric(cfg.noc);
  std::vector<int> placement = identity_permutation(cfg.dim.node_count());
  placement.resize(static_cast<std::size_t>(chip.partition.cluster_count));
  NocLdpcDecoder decoder(fabric, chip.code, chip.partition, placement,
                         cfg.ldpc_params);
  for (int i = 0; i < 2; ++i) (void)decoder.decode_block(chip.channel_llrs);
  for (int block = 0; block < 3; ++block) {
    const AllocGuard guard;
    const NocDecodeResult result = decoder.decode_block(chip.channel_llrs);
    EXPECT_EQ(guard.count(), 1) << "measured block " << block;
    EXPECT_EQ(result.hard_bits.size(), chip.channel_llrs.size());
  }
}

TEST(EngineAllocTest, WarmedDecodeIntoIsAllocationFree) {
  Rng code_rng(3);
  const LdpcCode code = LdpcCode::make_regular(510, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  Rng rng(5);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(2.5, 0.5, rng.split());
  const auto llrs = quantize_llrs(channel.transmit(encoder.encode(data)));

  const MinSumDecoder decoder(code, 10);
  DecodeResult result;
  decoder.decode_into(llrs, result);  // warm-up sizes hard_bits
  const AllocGuard guard;
  for (int i = 0; i < 8; ++i) decoder.decode_into(llrs, result);
  guard.check_zero("warmed decode_into");
  EXPECT_EQ(guard.count(), 0);
}

/// 4x4-tile die subdivided refine x refine (as RefinedThermalModel builds
/// it): refine=1 -> 58 nodes (configs A/B), refine=2 -> 202 nodes. Both
/// sizes must hold the zero-allocation contract once warmed.
RcNetwork runtime_net(int refine) {
  const int side = 4 * refine;
  return build_rc_network(
      make_grid_floorplan(GridDim{side, side},
                          date05_tile_area() /
                              (static_cast<double>(refine) * refine)),
      date05_hotspot_params());
}

TEST(EngineAllocTest, WarmedMigrationRuntimeRunIsAllocationFree) {
  for (const int refine : {1, 2}) {
    const RcNetwork net = runtime_net(refine);
    const int side = 4 * refine;
    const double tiles = static_cast<double>(refine) * refine;
    std::vector<double> power(static_cast<std::size_t>(net.die_count()),
                              2.0 / tiles);
    power[0] = 9.0 / tiles;
    const auto orbit = orbit_permutations(
        Transform{TransformKind::kRotation, 0}, GridDim{side, side});
    const std::vector<std::vector<double>> energy(
        orbit.size(),
        std::vector<double>(static_cast<std::size_t>(net.die_count()),
                            200e-6 / net.die_count()));

    const MigrationThermalRuntime engine(net, ThermalRunOptions{});
    (void)engine.run(power, orbit, energy);  // builds + warms the engine
    const AllocGuard guard;
    for (int i = 0; i < 3; ++i) (void)engine.run(power, orbit, energy);
    guard.check_zero(refine == 1
                         ? "warmed MigrationThermalRuntime::run (58 nodes)"
                         : "warmed MigrationThermalRuntime::run (202 nodes)");
    EXPECT_EQ(guard.count(), 0);
  }
}

TEST(EngineAllocTest, WarmedFiveJobBatchIsAllocationFree) {
  // A Figure-1-sized lockstep batch (four migrating schemes, with and
  // without migration energy, plus a static job) writing into
  // caller-owned storage allocates nothing once warmed.
  const RcNetwork net = runtime_net(1);
  const GridDim dim{4, 4};
  std::vector<double> power(16, 2.0);
  power[0] = 9.0;
  const auto rot =
      orbit_permutations(Transform{TransformKind::kRotation, 0}, dim);
  const auto mirror =
      orbit_permutations(Transform{TransformKind::kMirrorX, 0}, dim);
  const auto shift =
      orbit_permutations(Transform{TransformKind::kShiftXY, 1}, dim);
  const std::vector<std::vector<int>> identity{identity_permutation(16)};
  const std::vector<std::vector<double>> rot_energy(
      rot.size(), std::vector<double>(16, 200e-6 / 16));
  const std::vector<std::vector<double>> shift_energy(
      shift.size(), std::vector<double>(16, 150e-6 / 16));
  const std::array<ThermalJob, 5> jobs{{{&rot, &rot_energy},
                                        {&mirror, nullptr},
                                        {&shift, &shift_energy},
                                        {&rot, nullptr},
                                        {&identity, nullptr}}};
  std::array<ThermalRunResult, 5> results{};

  const MigrationThermalRuntime engine(net, ThermalRunOptions{});
  engine.run_batch(power, jobs, results);  // builds + warms the engine
  const AllocGuard guard;
  for (int i = 0; i < 3; ++i) engine.run_batch(power, jobs, results);
  guard.check_zero("warmed 5-job MigrationThermalRuntime::run_batch");
  EXPECT_EQ(guard.count(), 0);
  for (const ThermalRunResult& r : results) EXPECT_TRUE(r.converged);
}

TEST(EngineAllocTest, WarmedSparseSolvePathsAreAllocationFree) {
  const RcNetwork net = runtime_net(2);
  std::vector<double> power(static_cast<std::size_t>(net.die_count()), 2.0);
  power[0] = 9.0;
  const SteadyStateSolver steady(net);
  TransientSolver transient(net, 2e-6);
  const std::vector<double> full = expand_die_power(net, power);

  std::vector<double> rise;
  steady.solve_die_power_into(power, rise);  // warm-up sizes the buffer
  transient.step(full);
  const double peak = steady.peak_die_temperature(power);
  const AllocGuard guard;
  for (int i = 0; i < 8; ++i) {
    steady.solve_die_power_into(power, rise);
    transient.step(full);
    EXPECT_EQ(steady.peak_die_temperature(power), peak);
  }
  guard.check_zero(
      "warmed sparse solve_die_power_into/step/peak_die_temperature");
  EXPECT_EQ(guard.count(), 0);
}

// The placer allocates only while setting up an anneal: its moves update
// the communication total and the tile-power map in place and price the
// peak through a warmed peak_die_temperature, so 200 and 5,000 moves cost
// the same number of allocations.
TEST(EngineAllocTest, PlacerAllocationsIndependentOfIterations) {
  const ChipConfig cfg = config_A();
  const BuiltChip chip = build_chip(cfg);
  const RcNetwork net = build_rc_network(chip.floorplan, cfg.hotspot);
  const SteadyStateSolver steady(net);
  auto allocations = [&](int iterations) {
    PlacerOptions options = cfg.placer;
    options.iterations = iterations;
    const ThermalAwarePlacer placer(steady, cfg.dim, options);
    const AllocGuard guard;
    (void)placer.place(chip.compute_power_estimate, chip.traffic,
                       cfg.workload.pins);
    return guard.count();
  };
  (void)allocations(1);  // warms the solver's scratch
  EXPECT_EQ(allocations(200), allocations(5000));
}

}  // namespace
}  // namespace renoc
