// Tests for the power module: event-energy accounting, power maps and
// permutation algebra on maps.
#include <gtest/gtest.h>

#include <vector>

#include "noc/stats.hpp"
#include "power/energy_model.hpp"
#include "power/power_map.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

TEST(EnergyModelTest, TileEnergyIsLinearInCounters) {
  EnergyParams p;
  const EnergyModel model(p);
  TileActivity a;
  a.buffer_writes = 10;
  a.crossbar_traversals = 4;
  a.pe_compute_ops = 100;
  const double e1 = model.tile_dynamic_energy(a);
  TileActivity b = a;
  b.buffer_writes *= 2;
  b.crossbar_traversals *= 2;
  b.pe_compute_ops *= 2;
  EXPECT_NEAR(model.tile_dynamic_energy(b), 2 * e1, 1e-18);
}

TEST(EnergyModelTest, EnergyMatchesHandComputation) {
  EnergyParams p;
  p.e_buffer_write = 1e-12;
  p.e_buffer_read = 2e-12;
  p.e_crossbar = 3e-12;
  p.e_arbitration = 4e-12;
  p.e_link = 5e-12;
  p.e_pe_op = 6e-12;
  p.e_state_word = 7e-12;
  const EnergyModel model(p);
  TileActivity a;
  a.buffer_writes = 1;
  a.buffer_reads = 1;
  a.crossbar_traversals = 1;
  a.arbitrations = 1;
  a.link_flits = 1;
  a.pe_compute_ops = 1;
  a.pe_state_words = 1;
  EXPECT_NEAR(model.tile_dynamic_energy(a), 28e-12, 1e-20);
}

TEST(EnergyModelTest, PowerMapDividesByWindowAndAddsLeakage) {
  EnergyParams p;
  p.p_leak_tile = 0.5;
  const EnergyModel model(p);
  NetworkStats stats(4);
  stats.tile(2).pe_compute_ops = 1000;
  const double window = 1e-6;
  const auto map = model.power_map(stats, window);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_NEAR(map[0], 0.5, 1e-12);  // leakage only
  EXPECT_NEAR(map[2], 0.5 + 1000 * p.e_pe_op / window, 1e-9);
  // Scale applies to everything.
  const auto scaled = model.power_map(stats, window, 3.0);
  EXPECT_NEAR(scaled[2], 3.0 * map[2], 1e-9);
}

TEST(EnergyModelTest, InvalidParamsRejected) {
  EnergyParams p;
  p.e_link = -1.0;
  EXPECT_THROW(EnergyModel{p}, CheckError);
}

TEST(PowerMapTest, PermutationMovesPower) {
  const std::vector<double> power{1.0, 2.0, 3.0, 4.0};
  const std::vector<int> perm{1, 0, 3, 2};
  const auto moved = apply_permutation(power, perm);
  EXPECT_EQ(moved, (std::vector<double>{2.0, 1.0, 4.0, 3.0}));
  EXPECT_NEAR(total_power(moved), total_power(power), 1e-12);
}

TEST(PowerMapTest, BadPermutationsRejected) {
  const std::vector<double> power{1.0, 2.0};
  EXPECT_THROW(apply_permutation(power, {0, 0}), CheckError);
  EXPECT_THROW(apply_permutation(power, {0, 2}), CheckError);
  EXPECT_THROW(apply_permutation(power, {0}), CheckError);
}

TEST(PowerMapTest, AverageAndArithmetic) {
  const std::vector<std::vector<double>> maps{{2.0, 0.0}, {0.0, 4.0}};
  EXPECT_EQ(average_maps(maps), (std::vector<double>{1.0, 2.0}));
  std::vector<double> m{1.0, 2.0};
  scale_map(m, 2.0);
  EXPECT_EQ(m, (std::vector<double>{2.0, 4.0}));
  EXPECT_THROW(average_maps({}), CheckError);
}

TEST(NetworkStatsTest, TotalsAndClear) {
  NetworkStats stats(3);
  stats.tile(0).link_flits = 5;
  stats.tile(2).link_flits = 7;
  stats.note_packet_delivered(4, 20);
  EXPECT_EQ(stats.total().link_flits, 12u);
  EXPECT_EQ(stats.packets_delivered(), 1u);
  EXPECT_EQ(stats.flits_delivered(), 4u);
  EXPECT_DOUBLE_EQ(stats.packet_latency().mean(), 20.0);
  stats.clear();
  EXPECT_EQ(stats.total().link_flits, 0u);
  EXPECT_EQ(stats.packets_delivered(), 0u);
}

}  // namespace
}  // namespace renoc
