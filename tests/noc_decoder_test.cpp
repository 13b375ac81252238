// Tests for the NoC-distributed LDPC decoder: bit-identity with the golden
// decoder (the central functional invariant), timing determinism,
// placement independence of results, exact cycle and activity accounting,
// and rejection of malformed messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/transform.hpp"
#include "ldpc/channel.hpp"
#include "ldpc/decoder.hpp"
#include "ldpc/encoder.hpp"
#include "ldpc/noc_decoder.hpp"
#include "support/helpers.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

struct TestBench {
  LdpcCode code;
  std::vector<std::int16_t> llrs;
};

TestBench make_bench(int n = 240, std::uint64_t seed = 3, double ebn0 = 3.0) {
  Rng rng(seed);
  TestBench tb{LdpcCode::make_regular(n, 3, 6, rng), {}};
  LdpcEncoder encoder(tb.code);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(encoder.k()));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(2));
  AwgnChannel channel(ebn0, 0.5, rng.split());
  tb.llrs = quantize_llrs(channel.transmit(encoder.encode(data)));
  return tb;
}

NocConfig mesh(int side) {
  NocConfig cfg;
  cfg.dim = GridDim{side, side};
  return cfg;
}

TEST(NocDecoderTest, MatchesGoldenBitExactly) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 8;
  const MinSumDecoder golden(tb.code, params.iterations);
  const DecodeResult gold = golden.decode(tb.llrs);

  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code,
                         make_striped_partition(tb.code, 16),
                         identity_permutation(16), params);
  const NocDecodeResult res = decoder.decode_block(tb.llrs);
  EXPECT_EQ(res.hard_bits, gold.hard_bits);
  EXPECT_EQ(res.syndrome_ok, gold.syndrome_ok);
  EXPECT_GT(res.cycles, 0u);
}

/// Every TileActivity field, in declaration order.
using TileCounts = std::array<std::uint64_t, 9>;

TileCounts tile_counts(const TileActivity& a) {
  return {a.buffer_writes,  a.buffer_reads,   a.crossbar_traversals,
          a.arbitrations,   a.link_flits,     a.injected_flits,
          a.ejected_flits,  a.pe_compute_ops, a.pe_state_words};
}

// The invariant must hold across partitions, mesh sizes, noise levels, and
// iteration counts. Each case also pins the exact simulated accounting of
// two back-to-back blocks (identity placement, then reversed tile order):
// a change to the decode schedule or the fabric may make the simulation
// faster, never different.
struct EquivCase {
  int side;
  int clusters;
  int iterations;
  double ebn0;
  int partition_kind;  // 0 striped, 1 interleaved, 2 weighted
  Cycle block_cycles[2];  ///< NocDecodeResult::cycles per block
  Cycle now_after[2];     ///< fabric.now() after each block
  std::uint64_t packets_delivered;
  std::uint64_t flits_delivered;
  std::size_t latency_count;
  double latency_mean;
  std::vector<TileCounts> tiles;  ///< after both blocks
};

class NocDecoderEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(NocDecoderEquivalence, DistributedEqualsGolden) {
  const EquivCase& pc = GetParam();
  const TestBench tb = make_bench(240, 7, pc.ebn0);
  Partition partition;
  switch (pc.partition_kind) {
    case 0:
      partition = make_striped_partition(tb.code, pc.clusters);
      break;
    case 1:
      partition = make_interleaved_partition(tb.code, pc.clusters);
      break;
    default: {
      std::vector<double> w(static_cast<std::size_t>(pc.clusters), 1.0);
      w[0] = 3.0;
      w[static_cast<std::size_t>(pc.clusters - 1)] = 0.25;
      partition = make_weighted_partition(tb.code, w, w);
    }
  }
  LdpcNocParams params;
  params.iterations = pc.iterations;
  const MinSumDecoder golden(tb.code, params.iterations);
  const DecodeResult gold = golden.decode(tb.llrs);

  Fabric fabric(mesh(pc.side));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(pc.clusters), params);
  std::vector<int> reversed(static_cast<std::size_t>(pc.clusters));
  for (int c = 0; c < pc.clusters; ++c)
    reversed[static_cast<std::size_t>(c)] = fabric.node_count() - 1 - c;
  for (int block = 0; block < 2; ++block) {
    SCOPED_TRACE("block " + std::to_string(block));
    if (block == 1) decoder.set_placement(reversed);
    const NocDecodeResult res = decoder.decode_block(tb.llrs);
    EXPECT_EQ(res.hard_bits, gold.hard_bits);
    EXPECT_EQ(res.cycles, pc.block_cycles[block]);
    EXPECT_EQ(fabric.now(), pc.now_after[block]);
  }

  const NetworkStats& st = fabric.stats();
  EXPECT_EQ(st.packets_delivered(), pc.packets_delivered);
  EXPECT_EQ(st.flits_delivered(), pc.flits_delivered);
  EXPECT_EQ(st.packet_latency().count(), pc.latency_count);
  EXPECT_DOUBLE_EQ(st.packet_latency().mean(), pc.latency_mean);
  ASSERT_EQ(pc.tiles.size(), static_cast<std::size_t>(fabric.node_count()));
  for (int t = 0; t < fabric.node_count(); ++t)
    EXPECT_EQ(tile_counts(st.tile(t)), pc.tiles[static_cast<std::size_t>(t)])
        << "tile " << t;
}

// Tile rows: buffer_writes, buffer_reads, crossbar_traversals,
// arbitrations, link_flits, injected_flits, ejected_flits, pe_compute_ops,
// pe_state_words.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NocDecoderEquivalence,
    ::testing::Values(
        EquivCase{4, 16, 5, 2.0, 0, {858, 859}, {858, 1717},
                  3520, 4800, 3520, 8.7846590909090807,
                  {
                      {675, 675, 675, 500, 430, 245, 245, 990, 0},
                      {1070, 1070, 1070, 745, 760, 310, 310, 990, 0},
                      {1085, 1085, 1085, 745, 785, 300, 300, 990, 0},
                      {780, 780, 780, 540, 490, 290, 290, 990, 0},
                      {1075, 1075, 1075, 760, 770, 305, 305, 990, 0},
                      {1415, 1415, 1415, 1080, 1100, 315, 315, 990, 0},
                      {1425, 1425, 1425, 1085, 1100, 325, 325, 990, 0},
                      {1115, 1115, 1115, 845, 805, 310, 310, 990, 0},
                      {1115, 1115, 1115, 845, 805, 310, 310, 990, 0},
                      {1425, 1425, 1425, 1085, 1100, 325, 325, 990, 0},
                      {1415, 1415, 1415, 1080, 1100, 315, 315, 990, 0},
                      {1075, 1075, 1075, 760, 770, 305, 305, 990, 0},
                      {780, 780, 780, 540, 490, 290, 290, 990, 0},
                      {1085, 1085, 1085, 745, 785, 300, 300, 990, 0},
                      {1070, 1070, 1070, 745, 760, 310, 310, 990, 0},
                      {675, 675, 675, 500, 430, 245, 245, 990, 0},
                  }},
        EquivCase{4, 16, 10, 0.0, 1, {1734, 1729}, {1734, 3463},
                  8960, 10600, 8960, 9.4581473214285179,
                  {
                      {1720, 1720, 1720, 1470, 1060, 660, 660, 1890, 0},
                      {2420, 2420, 2420, 2070, 1770, 650, 650, 1890, 0},
                      {2390, 2390, 2390, 2080, 1730, 660, 660, 1890, 0},
                      {1710, 1710, 1710, 1450, 1040, 670, 670, 1890, 0},
                      {2450, 2450, 2450, 2000, 1760, 690, 690, 1890, 0},
                      {3100, 3100, 3100, 2630, 2430, 670, 670, 1890, 0},
                      {3060, 3060, 3060, 2640, 2400, 660, 660, 1890, 0},
                      {2390, 2390, 2390, 2000, 1750, 640, 640, 1890, 0},
                      {2390, 2390, 2390, 2000, 1750, 640, 640, 1890, 0},
                      {3060, 3060, 3060, 2640, 2400, 660, 660, 1890, 0},
                      {3100, 3100, 3100, 2630, 2430, 670, 670, 1890, 0},
                      {2450, 2450, 2450, 2000, 1760, 690, 690, 1890, 0},
                      {1710, 1710, 1710, 1450, 1040, 670, 670, 1890, 0},
                      {2390, 2390, 2390, 2080, 1730, 660, 660, 1890, 0},
                      {2420, 2420, 2420, 2070, 1770, 650, 650, 1890, 0},
                      {1720, 1720, 1720, 1470, 1060, 660, 660, 1890, 0},
                  }},
        EquivCase{4, 16, 6, 4.0, 2, {1733, 1733}, {1733, 3466},
                  4392, 5952, 4392, 7.126138433515476,
                  {
                      {1002, 1002, 1002, 552, 630, 372, 372, 1716, 0},
                      {1374, 1374, 1374, 882, 1020, 354, 354, 1092, 0},
                      {1320, 1320, 1320, 888, 948, 372, 372, 1092, 0},
                      {936, 936, 936, 672, 558, 378, 378, 1092, 0},
                      {1344, 1344, 1344, 1002, 972, 372, 372, 1092, 0},
                      {1800, 1800, 1800, 1398, 1416, 384, 384, 1092, 0},
                      {1782, 1782, 1782, 1392, 1392, 390, 390, 1092, 0},
                      {1302, 1302, 1302, 1014, 948, 354, 354, 1092, 0},
                      {1302, 1302, 1302, 1014, 948, 354, 354, 1092, 0},
                      {1782, 1782, 1782, 1392, 1392, 390, 390, 1092, 0},
                      {1800, 1800, 1800, 1398, 1416, 384, 384, 1092, 0},
                      {1344, 1344, 1344, 1002, 972, 372, 372, 1092, 0},
                      {936, 936, 936, 672, 558, 378, 378, 1092, 0},
                      {1320, 1320, 1320, 888, 948, 372, 372, 1092, 0},
                      {1374, 1374, 1374, 882, 1020, 354, 354, 1092, 0},
                      {1002, 1002, 1002, 552, 630, 372, 372, 1716, 0},
                  }},
        EquivCase{5, 25, 5, 2.0, 0, {745, 745}, {745, 1490},
                  6520, 7440, 6520, 11.811042944785282,
                  {
                      {705, 705, 705, 625, 435, 270, 270, 612, 0},
                      {1045, 1045, 1045, 885, 770, 275, 275, 612, 0},
                      {1210, 1210, 1210, 1020, 910, 300, 300, 612, 0},
                      {1025, 1025, 1025, 875, 760, 265, 265, 612, 0},
                      {685, 685, 685, 575, 425, 260, 260, 612, 0},
                      {1090, 1090, 1090, 960, 800, 290, 290, 642, 0},
                      {1445, 1445, 1445, 1295, 1145, 300, 300, 642, 0},
                      {1635, 1635, 1635, 1425, 1360, 275, 275, 642, 0},
                      {1590, 1590, 1590, 1430, 1275, 315, 315, 642, 0},
                      {1230, 1230, 1230, 1100, 900, 330, 330, 642, 0},
                      {1385, 1385, 1385, 1255, 1055, 330, 330, 660, 0},
                      {1835, 1835, 1835, 1695, 1490, 345, 345, 660, 0},
                      {2000, 2000, 2000, 1820, 1670, 330, 330, 660, 0},
                      {1835, 1835, 1835, 1695, 1490, 345, 345, 660, 0},
                      {1385, 1385, 1385, 1255, 1055, 330, 330, 660, 0},
                      {1230, 1230, 1230, 1100, 900, 330, 330, 642, 0},
                      {1590, 1590, 1590, 1430, 1275, 315, 315, 642, 0},
                      {1635, 1635, 1635, 1425, 1360, 275, 275, 642, 0},
                      {1445, 1445, 1445, 1295, 1145, 300, 300, 642, 0},
                      {1090, 1090, 1090, 960, 800, 290, 290, 642, 0},
                      {685, 685, 685, 575, 425, 260, 260, 612, 0},
                      {1025, 1025, 1025, 875, 760, 265, 265, 612, 0},
                      {1210, 1210, 1210, 1020, 910, 300, 300, 612, 0},
                      {1045, 1045, 1045, 885, 770, 275, 275, 612, 0},
                      {705, 705, 705, 625, 435, 270, 270, 612, 0},
                  }},
        EquivCase{5, 25, 8, 1.0, 1, {1141, 1138}, {1141, 2279},
                  12160, 12320, 12160, 9.9652960526316061,
                  {
                      {1264, 1264, 1264, 1264, 760, 504, 504, 945, 0},
                      {1952, 1952, 1952, 1920, 1424, 528, 528, 945, 0},
                      {2056, 2056, 2056, 2048, 1592, 464, 464, 945, 0},
                      {1904, 1904, 1904, 1896, 1432, 472, 472, 945, 0},
                      {1344, 1344, 1344, 1344, 824, 520, 520, 945, 0},
                      {1800, 1800, 1800, 1784, 1296, 504, 504, 993, 0},
                      {2488, 2488, 2488, 2456, 1992, 496, 496, 993, 0},
                      {2672, 2672, 2672, 2664, 2168, 504, 504, 993, 0},
                      {2504, 2504, 2504, 2464, 1984, 520, 520, 993, 0},
                      {1896, 1896, 1896, 1880, 1392, 504, 504, 993, 0},
                      {1960, 1960, 1960, 1928, 1512, 448, 448, 1020, 0},
                      {2512, 2512, 2512, 2448, 2072, 440, 440, 1020, 0},
                      {2752, 2752, 2752, 2720, 2240, 512, 512, 1020, 0},
                      {2512, 2512, 2512, 2448, 2072, 440, 440, 1020, 0},
                      {1960, 1960, 1960, 1928, 1512, 448, 448, 1020, 0},
                      {1896, 1896, 1896, 1880, 1392, 504, 504, 993, 0},
                      {2504, 2504, 2504, 2464, 1984, 520, 520, 993, 0},
                      {2672, 2672, 2672, 2664, 2168, 504, 504, 993, 0},
                      {2488, 2488, 2488, 2456, 1992, 496, 496, 993, 0},
                      {1800, 1800, 1800, 1784, 1296, 504, 504, 993, 0},
                      {1344, 1344, 1344, 1344, 824, 520, 520, 945, 0},
                      {1904, 1904, 1904, 1896, 1432, 472, 472, 945, 0},
                      {2056, 2056, 2056, 2048, 1592, 464, 464, 945, 0},
                      {1952, 1952, 1952, 1920, 1424, 528, 528, 945, 0},
                      {1264, 1264, 1264, 1264, 760, 504, 504, 945, 0},
                  }},
        // Fewer clusters than tiles (this case and the last).
        EquivCase{5, 20, 6, 2.0, 0, {943, 940}, {943, 1883},
                  5928, 6984, 5928, 9.2145748987854663,
                  {
                      {324, 324, 324, 252, 204, 120, 120, 468, 0},
                      {546, 546, 546, 390, 390, 156, 156, 468, 0},
                      {582, 582, 582, 402, 444, 138, 138, 468, 0},
                      {546, 546, 546, 384, 402, 144, 144, 468, 0},
                      {390, 390, 390, 270, 240, 150, 150, 468, 0},
                      {1038, 1038, 1038, 864, 702, 336, 336, 936, 0},
                      {1500, 1500, 1500, 1284, 1128, 372, 372, 936, 0},
                      {1644, 1644, 1644, 1440, 1290, 354, 354, 936, 0},
                      {1620, 1620, 1620, 1428, 1254, 366, 366, 936, 0},
                      {1218, 1218, 1218, 1050, 822, 396, 396, 936, 0},
                      {1416, 1416, 1416, 1242, 1020, 396, 396, 936, 0},
                      {1836, 1836, 1836, 1656, 1458, 378, 378, 936, 0},
                      {1920, 1920, 1920, 1740, 1548, 372, 372, 936, 0},
                      {1836, 1836, 1836, 1656, 1458, 378, 378, 936, 0},
                      {1416, 1416, 1416, 1242, 1020, 396, 396, 936, 0},
                      {1218, 1218, 1218, 1050, 822, 396, 396, 936, 0},
                      {1620, 1620, 1620, 1428, 1254, 366, 366, 936, 0},
                      {1644, 1644, 1644, 1440, 1290, 354, 354, 936, 0},
                      {1500, 1500, 1500, 1284, 1128, 372, 372, 936, 0},
                      {1038, 1038, 1038, 864, 702, 336, 336, 936, 0},
                      {390, 390, 390, 270, 240, 150, 150, 468, 0},
                      {546, 546, 546, 384, 402, 144, 144, 468, 0},
                      {582, 582, 582, 402, 444, 138, 138, 468, 0},
                      {546, 546, 546, 390, 390, 156, 156, 468, 0},
                      {324, 324, 324, 252, 204, 120, 120, 468, 0},
                  }},
        EquivCase{4, 10, 6, 2.0, 2, {2612, 2612}, {2612, 5224},
                  2064, 4560, 2064, 7.9418604651162923,
                  {
                      {1002, 1002, 1002, 252, 576, 426, 426, 2496, 0},
                      {1050, 1050, 1050, 396, 804, 246, 246, 858, 0},
                      {840, 840, 840, 366, 624, 216, 216, 858, 0},
                      {534, 534, 534, 246, 312, 222, 222, 837, 0},
                      {864, 864, 864, 372, 642, 222, 222, 837, 0},
                      {1050, 1050, 1050, 558, 834, 216, 216, 837, 0},
                      {1116, 1116, 1116, 654, 792, 324, 324, 1035, 0},
                      {924, 924, 924, 480, 516, 408, 408, 1602, 0},
                      {924, 924, 924, 480, 516, 408, 408, 1602, 0},
                      {1116, 1116, 1116, 654, 792, 324, 324, 1035, 0},
                      {1050, 1050, 1050, 558, 834, 216, 216, 837, 0},
                      {864, 864, 864, 372, 642, 222, 222, 837, 0},
                      {534, 534, 534, 246, 312, 222, 222, 837, 0},
                      {840, 840, 840, 366, 624, 216, 216, 858, 0},
                      {1050, 1050, 1050, 396, 804, 246, 246, 858, 0},
                      {1002, 1002, 1002, 252, 576, 426, 426, 2496, 0},
                  }}));

/// The fabric's accounting after a run: now(), packets and flits
/// delivered, the latency count and its mean, min and max as bit patterns,
/// and every tile's counters.
struct FabricAccount {
  Cycle now = 0;
  std::array<std::uint64_t, 6> delivered{};
  std::vector<TileCounts> tiles;
  bool operator==(const FabricAccount&) const = default;
};

FabricAccount account(const Fabric& fabric) {
  const NetworkStats& st = fabric.stats();
  const RunningStats& lat = st.packet_latency();
  FabricAccount a{fabric.now(),
                  {st.packets_delivered(), st.flits_delivered(), lat.count(),
                   std::bit_cast<std::uint64_t>(lat.mean()),
                   std::bit_cast<std::uint64_t>(lat.min()),
                   std::bit_cast<std::uint64_t>(lat.max())},
                  {}};
  for (int t = 0; t < fabric.node_count(); ++t)
    a.tiles.push_back(tile_counts(st.tile(t)));
  return a;
}

TEST(NocDecoderTest, ReplayedBlocksEqualSteppedTwin) {
  // Period replay needs injection enabled at every node, so a twin with
  // injection off at the one tile no cluster uses can never replay: it
  // steps every cycle of the same schedule. Three blocks must agree with it
  // in every result field and every counter: two at the identity placement
  // (the second from the round-robin pointers the first left), which
  // replay most of their cycles, and one at reversed tiles. So must a
  // block whose deadlock guard fires where the first block replayed.
  const TestBench tb = make_bench(1200, 7, 2.0);
  const Partition partition = make_striped_partition(tb.code, 24);
  std::vector<int> reversed(24);
  for (int c = 0; c < 24; ++c)
    reversed[static_cast<std::size_t>(c)] = 23 - c;
  LdpcNocParams params;
  params.iterations = 20;

  Fabric fast(mesh(5));
  Fabric stepped(mesh(5));
  stepped.set_injection_enabled(24, false);
  NocLdpcDecoder fast_decoder(fast, tb.code, partition,
                              identity_permutation(24), params);
  NocLdpcDecoder stepped_decoder(stepped, tb.code, partition,
                                 identity_permutation(24), params);
  Cycle first_block = 0;
  for (int block = 0; block < 3; ++block) {
    SCOPED_TRACE("block " + std::to_string(block));
    if (block == 2) {
      fast_decoder.set_placement(reversed);
      stepped_decoder.set_placement(reversed);
    }
    const NocDecodeResult f = fast_decoder.decode_block(tb.llrs);
    const NocDecodeResult s = stepped_decoder.decode_block(tb.llrs);
    if (block < 2) {
      EXPECT_GT(f.replayed_cycles, f.cycles / 2);
      EXPECT_LT(f.replayed_cycles, f.cycles);
    }
    EXPECT_EQ(s.replayed_cycles, 0u);
    EXPECT_EQ(f.cycles, s.cycles);
    EXPECT_EQ(f.hard_bits, s.hard_bits);
    EXPECT_EQ(f.syndrome_ok, s.syndrome_ok);
    EXPECT_TRUE(account(fast) == account(stepped));
    if (block == 0) first_block = f.cycles;
  }

  params.max_cycles_per_block = first_block / 2;
  NocLdpcDecoder fast_cut(fast, tb.code, partition, identity_permutation(24),
                          params);
  NocLdpcDecoder stepped_cut(stepped, tb.code, partition,
                             identity_permutation(24), params);
  const Cycle start = fast.now();
  EXPECT_THROW(fast_cut.decode_block(tb.llrs), CheckError);
  EXPECT_THROW(stepped_cut.decode_block(tb.llrs), CheckError);
  EXPECT_EQ(fast.now(), start + params.max_cycles_per_block);
  EXPECT_TRUE(account(fast) == account(stepped));
}

TEST(NocDecoderTest, PlacementDoesNotChangeFunction) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 6;
  const Partition partition = make_striped_partition(tb.code, 16);

  Fabric f1(mesh(4));
  NocLdpcDecoder d1(f1, tb.code, partition, identity_permutation(16),
                    params);
  const auto r1 = d1.decode_block(tb.llrs);

  // A rotated placement.
  const Transform rot{TransformKind::kRotation, 0};
  const std::vector<int> rotated = rot.permutation(GridDim{4, 4});
  Fabric f2(mesh(4));
  NocLdpcDecoder d2(f2, tb.code, partition, rotated, params);
  const auto r2 = d2.decode_block(tb.llrs);

  EXPECT_EQ(r1.hard_bits, r2.hard_bits);
}

TEST(NocDecoderTest, BlockTimingIsDeterministicAndValueIndependent) {
  const TestBench a = make_bench(240, 7, 2.0);
  const TestBench b = make_bench(240, 7, -2.0);  // different noise level
  LdpcNocParams params;
  params.iterations = 6;
  const Partition partition = make_striped_partition(a.code, 16);

  Fabric f(mesh(4));
  NocLdpcDecoder decoder(f, a.code, partition, identity_permutation(16),
                         params);
  const Cycle c1 = decoder.decode_block(a.llrs).cycles;
  const Cycle c2 = decoder.decode_block(a.llrs).cycles;
  const Cycle c3 = decoder.decode_block(b.llrs).cycles;
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1, c3) << "timing must not depend on message values";
}

TEST(NocDecoderTest, ComputeOpsLandOnPlacedTiles) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 4;
  std::vector<double> w(16, 1.0);
  w[3] = 5.0;  // cluster 3 does much more work
  const Partition partition = make_weighted_partition(tb.code, w, w);

  // Place cluster 3 on tile 9 and verify the ops show up there.
  std::vector<int> placement = identity_permutation(16);
  std::swap(placement[3], placement[9]);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition, placement, params);
  decoder.decode_block(tb.llrs);
  const auto& stats = fabric.stats();
  EXPECT_GT(stats.tile(9).pe_compute_ops, stats.tile(0).pe_compute_ops * 3);
}

TEST(NocDecoderTest, TotalComputeOpsMatchAnalytic) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 5;
  const Partition partition = make_striped_partition(tb.code, 16);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(16), params);
  decoder.decode_block(tb.llrs);
  std::uint64_t total = 0;
  for (int t = 0; t < 16; ++t) total += fabric.stats().tile(t).pe_compute_ops;
  // Per iteration: E VN ops + E CN ops; final phase: E more VN-side ops.
  const std::uint64_t e = static_cast<std::uint64_t>(tb.code.edge_count());
  EXPECT_EQ(total, e * (2 * 5 + 1));
}

TEST(NocDecoderTest, FabricIsIdleBetweenBlocks) {
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 3;
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code,
                         make_striped_partition(tb.code, 16),
                         identity_permutation(16), params);
  decoder.decode_block(tb.llrs);
  EXPECT_TRUE(fabric.idle());
  // And a second block works from that state.
  EXPECT_NO_THROW(decoder.decode_block(tb.llrs));
}

TEST(NocDecoderTest, DeadlockGuardFiresOnItsOwnCycle) {
  // Long phases leave the fabric idle while every PE computes, which the
  // decoder skips in one jump; the jump must stop at the guard's cycle.
  const TestBench tb = make_bench();
  LdpcNocParams params;
  params.iterations = 2;
  params.phase_overhead_cycles = 1000;
  params.max_cycles_per_block = 500;
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code,
                         make_striped_partition(tb.code, 16),
                         identity_permutation(16), params);
  EXPECT_THROW(decoder.decode_block(tb.llrs), CheckError);
  EXPECT_EQ(fabric.now(), 500u);
}

TEST(NocDecoderTest, RejectsMalformedMessages) {
  const TestBench tb = make_bench();
  const int clusters = 4;  // coarse clusters: pairs carry many edges
  const Partition partition = make_striped_partition(tb.code, clusters);
  // Cross-cluster edges per (VN cluster, CN cluster) pair; the widest pair
  // needs several payload words.
  std::vector<int> pair_edges(clusters * clusters, 0);
  for (int c = 0; c < tb.code.m(); ++c) {
    const int co = partition.cn_owner[static_cast<std::size_t>(c)];
    for (const TannerEdge& e : tb.code.check_edges(c)) {
      const int vo = partition.vn_owner[static_cast<std::size_t>(e.other)];
      if (vo != co) ++pair_edges[static_cast<std::size_t>(vo * clusters + co)];
    }
  }
  const auto widest = std::max_element(pair_edges.begin(), pair_edges.end());
  const int src = static_cast<int>(widest - pair_edges.begin()) / clusters;
  const int dst = static_cast<int>(widest - pair_edges.begin()) % clusters;
  const LdpcNocParams params;
  const int words = (*widest + NocLdpcDecoder::kValuesPerWord - 1) /
                    NocLdpcDecoder::kValuesPerWord;
  ASSERT_GE(words, 2);

  // A message parked at a decoder tile before the block starts is the
  // first thing decode_block unpacks (identity placement: tile = cluster).
  auto decode_after = [&](std::uint64_t tag, std::size_t payload_words) {
    Fabric fabric(mesh(4));
    NocLdpcDecoder decoder(fabric, tb.code, partition,
                           identity_permutation(clusters), params);
    Message m;
    m.src = src;
    m.dst = dst;
    m.tag = tag;
    m.payload.assign(payload_words, 0);
    fabric.send(m);
    fabric.drain();
    decoder.decode_block(tb.llrs);
  };
  // Phase 0 (VN) from cluster `src`: its q values need `words` words.
  const std::uint64_t vn_tag = static_cast<std::uint64_t>(src);
  EXPECT_THROW(decode_after(vn_tag, static_cast<std::size_t>(words - 1)),
               CheckError)
      << "truncated payload";
  EXPECT_THROW(decode_after(vn_tag, static_cast<std::size_t>(words + 1)),
               CheckError)
      << "oversized payload";
  // Phase 2 * iterations + 1 == phase_count(): one past the final phase.
  const std::uint64_t past_last =
      static_cast<std::uint64_t>(2 * params.iterations + 1) << 16 | vn_tag;
  EXPECT_THROW(decode_after(past_last, static_cast<std::size_t>(words)),
               CheckError)
      << "phase out of range";
  const std::uint64_t bad_cluster = static_cast<std::uint64_t>(clusters);
  EXPECT_THROW(decode_after(bad_cluster, static_cast<std::size_t>(words)),
               CheckError)
      << "source cluster out of range";
}

TEST(NocDecoderTest, MigrationStateWordsScaleWithClusterSize) {
  const TestBench tb = make_bench();
  std::vector<double> w(16, 1.0);
  w[0] = 4.0;
  const Partition partition = make_weighted_partition(tb.code, w, w);
  Fabric fabric(mesh(4));
  NocLdpcDecoder decoder(fabric, tb.code, partition,
                         identity_permutation(16), LdpcNocParams{});
  EXPECT_GT(decoder.migration_state_words(0),
            decoder.migration_state_words(1));
  // Every cluster needs at least the config block.
  for (int c = 0; c < 16; ++c)
    EXPECT_GE(decoder.migration_state_words(c), 16);
}

TEST(NocDecoderTest, RejectsBadPlacements) {
  const TestBench tb = make_bench();
  const Partition partition = make_striped_partition(tb.code, 16);
  Fabric fabric(mesh(4));
  // Duplicate tile.
  std::vector<int> placement = identity_permutation(16);
  placement[1] = 0;
  EXPECT_THROW(NocLdpcDecoder(fabric, tb.code, partition, placement,
                              LdpcNocParams{}),
               CheckError);
  // Out-of-range tile.
  placement = identity_permutation(16);
  placement[2] = 99;
  EXPECT_THROW(NocLdpcDecoder(fabric, tb.code, partition, placement,
                              LdpcNocParams{}),
               CheckError);
}

}  // namespace
}  // namespace renoc
