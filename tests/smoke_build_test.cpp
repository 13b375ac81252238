// Link-coverage smoke test: instantiates one object from each of the eight
// src/ modules (core, floorplan, ldpc, mapping, noc, power, thermal, util),
// touching at least one out-of-line symbol per module so that any future
// break in a module's compilation or linkage fails this suite immediately.
#include <gtest/gtest.h>

#include "core/chip_config.hpp"
#include "floorplan/floorplan.hpp"
#include "ldpc/code.hpp"
#include "mapping/placer.hpp"
#include "noc/stats.hpp"
#include "power/energy_model.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace renoc {
namespace {

TEST(SmokeBuildTest, OneObjectFromEveryModuleLinks) {
  // util
  Rng rng(7);
  RunningStats running;
  running.add(1.0);
  EXPECT_EQ(running.count(), 1u);

  // floorplan
  const GridDim dim{2, 2};
  const Floorplan fp = make_grid_floorplan(dim, date05_tile_area());
  EXPECT_EQ(fp.block_count(), 4);

  // thermal
  const HotSpotParams hotspot = date05_hotspot_params();
  const RcNetwork net = build_rc_network(fp, hotspot);
  const SteadyStateSolver solver(net);
  EXPECT_GT(net.node_count(), fp.block_count());

  // mapping
  PlacerOptions placer_options;
  placer_options.iterations = 1;
  const ThermalAwarePlacer placer(solver, dim, placer_options);
  (void)placer;

  // ldpc
  const LdpcCode code = LdpcCode::make_regular(12, 2, 3, rng);
  EXPECT_EQ(code.n(), 12);
  EXPECT_EQ(code.m(), 8);

  // noc
  NetworkStats stats(dim.node_count());
  stats.tile(0).buffer_writes += 1;
  EXPECT_EQ(stats.total().buffer_writes, 1u);

  // power
  const EnergyModel energy((EnergyParams()));
  EXPECT_GT(energy.params().e_link, 0.0);

  // core
  const ChipConfig cfg = config_A();
  EXPECT_FALSE(cfg.name.empty());
}

}  // namespace
}  // namespace renoc
