// AllocGuard subsystem tests + the steady-state zero-allocation pins.
//
// The engine contract (PRs 3–5) is that every *warmed* hot path performs
// zero heap allocations: Fabric::step() under a periodic recycled load,
// MinSumDecoder::decode_into() with a reused result, a warmed
// MigrationThermalRuntime::run() at 58 and 202 nodes, and the
// sparse steady/transient solve paths. A warmed
// NocLdpcDecoder::decode_block() allocates exactly once, for the result it
// returns. These suites pin the invariant in every CI configuration
// (Debug, Release, every sanitizer build) through util/alloc_guard.
//
// Linking this binary against the guard API pulls the interposed
// operator new/delete out of the renoc archive (see util/alloc_guard.hpp),
// so the measurements here are real allocation counts. When the
// RENOC_ALLOC_GUARD option is off the pins skip rather than vacuously pass.
#include "util/alloc_guard.hpp"

#include <gtest/gtest.h>

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
#include "noc/fabric.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

#define RENOC_REQUIRE_INSTRUMENTED()                                     \
  do {                                                                   \
    if (!alloc_guard::instrumented())                                    \
      GTEST_SKIP() << "RENOC_ALLOC_GUARD is off: operator new/delete "   \
                      "are not interposed, so allocation counts would "  \
                      "be vacuous";                                      \
  } while (0)

// --- Guard mechanics -------------------------------------------------------

TEST(AllocGuardTest, CountsAndSizesAllocations) {
  RENOC_REQUIRE_INSTRUMENTED();
  const AllocGuard guard;
  {
    std::vector<char> v;
    v.reserve(1024);
  }
  EXPECT_GE(guard.count(), 1);
  EXPECT_GE(guard.bytes(), 1024);
}

TEST(AllocGuardTest, QuietScopeCountsZero) {
  RENOC_REQUIRE_INSTRUMENTED();
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
  RENOC_REQUIRE_INSTRUMENTED();
  const AllocGuard guard;
  std::vector<char> v(64);
  EXPECT_THROW(guard.check_zero("allocating scope"), CheckError);
}

TEST(AllocGuardTest, TotalsAdvanceMonotonically) {
  RENOC_REQUIRE_INSTRUMENTED();
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
// maxima, making the pin probabilistic.)
TEST(EngineAllocTest, WarmedFabricStepLoopIsAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
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
  RENOC_REQUIRE_INSTRUMENTED();
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
  RENOC_REQUIRE_INSTRUMENTED();
  Rng code_rng(3);
  const LdpcCode code = LdpcCode::make_regular(510, 3, 6, code_rng);
  const LdpcEncoder encoder(code);
  Rng rng(5);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(2.5, 0.5, rng.split());
  const auto llrs = quantize_llrs(channel.transmit(encoder.encode(data)));

  for (const bool early_exit : {false, true}) {
    const MinSumDecoder decoder(code, 10, early_exit);
    DecodeResult result;
    decoder.decode_into(llrs, result);  // warm-up sizes hard_bits
    const AllocGuard guard;
    for (int i = 0; i < 8; ++i) decoder.decode_into(llrs, result);
    guard.check_zero(early_exit ? "warmed decode_into (early exit)"
                                : "warmed decode_into");
    EXPECT_EQ(guard.count(), 0);
  }
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
  RENOC_REQUIRE_INSTRUMENTED();
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

TEST(EngineAllocTest, WarmedSparseSolvePathsAreAllocationFree) {
  RENOC_REQUIRE_INSTRUMENTED();
  const RcNetwork net = runtime_net(2);
  std::vector<double> power(static_cast<std::size_t>(net.die_count()), 2.0);
  power[0] = 9.0;
  const SteadyStateSolver steady(net);
  TransientSolver transient(net, 2e-6);
  const std::vector<double> full = net.expand_die_power(power);

  std::vector<double> rise;
  steady.solve_die_power_into(power, rise);  // warm-up sizes the buffer
  transient.step(full);
  const AllocGuard guard;
  for (int i = 0; i < 8; ++i) {
    steady.solve_die_power_into(power, rise);
    transient.step(full);
  }
  guard.check_zero("warmed sparse solve_die_power_into/step");
  EXPECT_EQ(guard.count(), 0);
}

}  // namespace
}  // namespace renoc
