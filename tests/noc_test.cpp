// Tests for the cycle-accurate NoC: routing, delivery, wormhole ordering,
// credit flow control, latency bounds, halting, and synthetic traffic.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "noc/fabric.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

NocConfig small_config(int w = 4, int h = 4) {
  NocConfig cfg;
  cfg.dim = GridDim{w, h};
  cfg.buffer_depth = 4;
  return cfg;
}

TEST(RoutingTest, XyRouteDirections) {
  EXPECT_EQ(xy_route({0, 0}, {2, 0}), Direction::kEast);
  EXPECT_EQ(xy_route({2, 0}, {0, 0}), Direction::kWest);
  // X corrected first, even when Y differs.
  EXPECT_EQ(xy_route({0, 0}, {2, 2}), Direction::kEast);
  EXPECT_EQ(xy_route({2, 0}, {2, 2}), Direction::kNorth);
  EXPECT_EQ(xy_route({2, 2}, {2, 0}), Direction::kSouth);
  EXPECT_EQ(xy_route({1, 1}, {1, 1}), Direction::kLocal);
}

TEST(RoutingTest, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
  EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
  EXPECT_THROW(opposite(Direction::kLocal), CheckError);
}

TEST(RoutingTest, OppositeIsAnInvolutionOnMeshDirections) {
  for (int d = 0; d < 4; ++d) {
    const Direction dir = static_cast<Direction>(d);
    EXPECT_EQ(opposite(opposite(dir)), dir);
  }
  EXPECT_EQ(opposite(Direction::kSouth), Direction::kNorth);
  EXPECT_EQ(opposite(Direction::kWest), Direction::kEast);
}

TEST(RoutingTest, XyPathIsMinimalAndXFirst) {
  const GridDim dim{4, 4};
  const auto path = xy_path({0, 0}, {2, 3}, dim);
  ASSERT_EQ(path.size(), 6u);  // 5 hops + start
  EXPECT_EQ(path.front(), coord_to_index({0, 0}, dim));
  EXPECT_EQ(path[1], coord_to_index({1, 0}, dim));
  EXPECT_EQ(path[2], coord_to_index({2, 0}, dim));
  EXPECT_EQ(path[3], coord_to_index({2, 1}, dim));
  EXPECT_EQ(path.back(), coord_to_index({2, 3}, dim));
}

TEST(RoutingTest, XyPathSourceEqualsDestination) {
  const GridDim dim{4, 4};
  const auto path = xy_path({2, 3}, {2, 3}, dim);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], coord_to_index({2, 3}, dim));
}

TEST(RoutingTest, XyPathOnDegenerateMeshes) {
  // 1xN column mesh: the walk is pure Y (no X to correct).
  const GridDim column{1, 5};
  const auto down = xy_path({0, 4}, {0, 1}, column);
  ASSERT_EQ(down.size(), 4u);
  for (std::size_t i = 0; i < down.size(); ++i)
    EXPECT_EQ(down[i], coord_to_index({0, 4 - static_cast<int>(i)}, column));
  // Nx1 row mesh: pure X.
  const GridDim row{6, 1};
  const auto east = xy_path({0, 0}, {5, 0}, row);
  ASSERT_EQ(east.size(), 6u);
  for (std::size_t i = 0; i < east.size(); ++i)
    EXPECT_EQ(east[i], coord_to_index({static_cast<int>(i), 0}, row));
}

TEST(RoutingTest, XyPathOnNonSquareMeshCorrectsXCompletelyFirst) {
  const GridDim wide{5, 2};
  const auto path = xy_path({4, 1}, {0, 0}, wide);
  const std::vector<int> expected = {
      coord_to_index({4, 1}, wide), coord_to_index({3, 1}, wide),
      coord_to_index({2, 1}, wide), coord_to_index({1, 1}, wide),
      coord_to_index({0, 1}, wide), coord_to_index({0, 0}, wide)};
  EXPECT_EQ(path, expected);
}

TEST(FabricTest, SingleMessageDelivered) {
  Fabric fabric(small_config());
  Message m;
  m.src = 0;
  m.dst = 15;
  m.tag = 77;
  m.payload = {1, 2, 3};
  fabric.send(m);
  fabric.drain();
  auto got = fabric.try_receive(15);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 0);
  EXPECT_EQ(got->dst, 15);
  EXPECT_EQ(got->tag, 77u);
  EXPECT_EQ(got->payload, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(fabric.try_receive(15).has_value());
}

TEST(FabricTest, EmptyPayloadBecomesOneWord) {
  Fabric fabric(small_config());
  Message m;
  m.src = 1;
  m.dst = 2;
  fabric.send(m);
  fabric.drain();
  auto got = fabric.try_receive(2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), 1u);
  EXPECT_EQ(got->payload[0], 0u);
}

TEST(FabricTest, LatencyLowerBoundOnEmptyMesh) {
  // hops + flits + constant; an uncontended packet cannot beat
  // injection(1) + hops + ejection(1).
  Fabric fabric(small_config());
  Message m;
  m.src = 0;
  m.dst = 15;  // 6 hops
  m.payload = {0};
  fabric.send(m);
  int cycles = 0;
  while (!fabric.try_receive(15).has_value()) {
    fabric.step();
    ++cycles;
    ASSERT_LT(cycles, 100);
  }
  EXPECT_GE(cycles, 8);   // 6 hops + inject + eject
  EXPECT_LE(cycles, 12);  // and it should be close to minimal
}

TEST(FabricTest, MessagesArriveInOrderPerPair) {
  Fabric fabric(small_config());
  for (std::uint64_t i = 0; i < 20; ++i) {
    Message m;
    m.src = 0;
    m.dst = 12;
    m.tag = i;
    m.payload = {i};
    fabric.send(m);
  }
  fabric.drain();
  for (std::uint64_t i = 0; i < 20; ++i) {
    auto got = fabric.try_receive(12);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, i) << "wormhole must preserve per-pair order";
  }
}

TEST(FabricTest, LongPacketIntegrity) {
  // A packet much longer than any FIFO exercises wormhole continuation
  // and credit stalls.
  Fabric fabric(small_config());
  Message m;
  m.src = 3;
  m.dst = 12;
  m.payload.resize(200);
  for (std::size_t i = 0; i < m.payload.size(); ++i) m.payload[i] = i * i;
  fabric.send(m);
  fabric.drain();
  auto got = fabric.try_receive(12);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->payload.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(got->payload[i], i * i);
}

TEST(FabricTest, FlitConservation) {
  // Total ejected flits equals total injected flits after drain.
  Fabric fabric(small_config());
  Rng rng(5);
  int sent_flits = 0;
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.src = static_cast<int>(rng.next_below(16));
    m.dst = static_cast<int>(rng.next_below(16));
    if (m.dst == m.src) m.dst = (m.dst + 1) % 16;
    m.payload.resize(1 + rng.next_below(7));
    fabric.send(m);
    sent_flits += m.flit_count();
  }
  fabric.drain();
  const TileActivity total = fabric.stats().total();
  EXPECT_EQ(total.injected_flits, static_cast<std::uint64_t>(sent_flits));
  EXPECT_EQ(total.ejected_flits, static_cast<std::uint64_t>(sent_flits));
  EXPECT_EQ(fabric.stats().flits_delivered(),
            static_cast<std::uint64_t>(sent_flits));
  // Every buffered flit was eventually read back out.
  EXPECT_EQ(total.buffer_writes, total.buffer_reads);
}

TEST(FabricTest, AllPairsDeliver) {
  Fabric fabric(small_config(5, 5));
  int expected = 0;
  for (int s = 0; s < 25; ++s) {
    for (int d = 0; d < 25; ++d) {
      if (s == d) continue;
      Message m;
      m.src = s;
      m.dst = d;
      m.tag = static_cast<std::uint64_t>(s * 100 + d);
      m.payload = {static_cast<std::uint64_t>(s), static_cast<std::uint64_t>(d)};
      fabric.send(m);
      ++expected;
    }
  }
  fabric.drain(200000);
  int received = 0;
  for (int d = 0; d < 25; ++d) {
    while (auto got = fabric.try_receive(d)) {
      EXPECT_EQ(got->dst, d);
      EXPECT_EQ(got->payload[1], static_cast<std::uint64_t>(d));
      ++received;
    }
  }
  EXPECT_EQ(received, expected);
}

TEST(FabricTest, HaltedNodeDoesNotInject) {
  Fabric fabric(small_config());
  fabric.set_injection_enabled(0, false);
  Message m;
  m.src = 0;
  m.dst = 5;
  fabric.send(m);
  fabric.run(100);
  EXPECT_FALSE(fabric.try_receive(5).has_value());
  EXPECT_FALSE(fabric.idle());  // the message still waits at node 0's NI
  // Re-enabling releases the queued message.
  fabric.set_injection_enabled(0, true);
  fabric.drain();
  EXPECT_TRUE(fabric.try_receive(5).has_value());
}

TEST(FabricTest, HaltedNodeStillEjects) {
  Fabric fabric(small_config());
  fabric.set_injection_enabled(9, false);
  Message m;
  m.src = 0;
  m.dst = 9;
  fabric.send(m);
  fabric.drain();
  EXPECT_TRUE(fabric.try_receive(9).has_value());
}

TEST(FabricTest, IdleReflectsState) {
  Fabric fabric(small_config());
  EXPECT_TRUE(fabric.idle());
  Message m;
  m.src = 0;
  m.dst = 1;
  fabric.send(m);
  EXPECT_FALSE(fabric.idle());
  fabric.drain();
  // Delivered-but-unread messages do not count as in-flight.
  EXPECT_TRUE(fabric.idle());
}

TEST(FabricTest, DeterministicAcrossRuns) {
  auto run = [] {
    Fabric fabric(small_config());
    Rng rng(123);
    for (int i = 0; i < 200; ++i) {
      Message m;
      m.src = static_cast<int>(rng.next_below(16));
      m.dst = static_cast<int>(rng.next_below(16));
      if (m.dst == m.src) m.dst = (m.dst + 3) % 16;
      m.payload.resize(1 + rng.next_below(5));
      fabric.send(m);
    }
    const int cycles = fabric.drain();
    return std::make_pair(cycles, fabric.stats().total().link_flits);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FabricTest, BadAddressesRejected) {
  Fabric fabric(small_config());
  Message m;
  m.src = -1;
  m.dst = 3;
  EXPECT_THROW(fabric.send(m), CheckError);
  m.src = 3;
  m.dst = 16;
  EXPECT_THROW(fabric.send(m), CheckError);
  EXPECT_THROW(fabric.try_receive(16), CheckError);
}

TEST(FabricTest, MeshMustBeAtLeast2x2AndAtMost65536Nodes) {
  NocConfig cfg;
  cfg.dim = GridDim{1, 4};
  EXPECT_THROW(Fabric{cfg}, CheckError);
  // The node count is checked in 64 bits before any table is sized from
  // it: 70000 x 70000 overflows int.
  cfg.dim = GridDim{70000, 70000};
  EXPECT_THROW(Fabric{cfg}, CheckError);
  // A FIFO entry names its destination in 16 bits. 65537 is prime, so
  // 2 x 32769 is the smallest mesh past the bound. (Meshes at the bound
  // are only validated: a Fabric that size builds N^2 tables.)
  cfg.dim = GridDim{2, 32769};
  EXPECT_THROW(Fabric{cfg}, CheckError);
  cfg.dim = GridDim{2, 32768};
  EXPECT_NO_THROW(cfg.validate());
  cfg.dim = GridDim{256, 256};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FabricTest, SaturationDrainsEventually) {
  // Heavy all-to-one traffic (worst case contention) still drains, and the
  // hotspot's ejection counts match.
  Fabric fabric(small_config());
  for (int round = 0; round < 10; ++round) {
    for (int s = 1; s < 16; ++s) {
      Message m;
      m.src = s;
      m.dst = 0;
      m.payload.resize(4);
      fabric.send(m);
    }
  }
  fabric.drain(100000);
  int received = 0;
  while (fabric.try_receive(0)) ++received;
  EXPECT_EQ(received, 150);
  EXPECT_EQ(fabric.stats().tile(0).ejected_flits, 150u * 4u);
}

class TrafficPatternTest : public ::testing::TestWithParam<TrafficPattern> {};

TEST_P(TrafficPatternTest, GeneratorConservesMessages) {
  Fabric fabric(small_config());
  TrafficGenerator gen(fabric, GetParam(), 0.1, 2, Rng(42), 5);
  gen.run(2000);
  fabric.drain(100000);
  for (int n = 0; n < fabric.node_count(); ++n)
    while (fabric.try_receive(n)) {
    }
  // After the drain every sent message was received (generator counts its
  // own receipts during run; the rest were picked up above).
  EXPECT_GT(gen.messages_sent(), 100u);
  EXPECT_EQ(fabric.stats().packets_delivered(), gen.messages_sent());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TrafficPatternTest,
    ::testing::Values(TrafficPattern::kUniformRandom,
                      TrafficPattern::kTranspose,
                      TrafficPattern::kBitComplement,
                      TrafficPattern::kHotspot, TrafficPattern::kNeighbor));

TEST(TrafficTest, LatencyGrowsWithLoad) {
  auto mean_latency = [](double rate) {
    Fabric fabric(small_config());
    TrafficGenerator gen(fabric, TrafficPattern::kUniformRandom, rate, 2,
                         Rng(7));
    gen.run(5000);
    fabric.drain(100000);
    return fabric.stats().packet_latency().mean();
  };
  const double low = mean_latency(0.02);
  const double high = mean_latency(0.35);
  EXPECT_GT(high, low);
}

}  // namespace
}  // namespace renoc
