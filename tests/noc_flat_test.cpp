// Tests for the flat SoA NoC fabric engine and its harnesses:
//   * bit-exactness of the flat Fabric against the preserved seed engine
//     (support/reference_fabric) — delivery order and contents, cycle counts,
//     and every NocStats counter — across traffic patterns, mesh shapes,
//     buffer depths, and wormhole-contention scenarios;
//   * the scenario-sweep harness: thread-count invariance and single-
//     scenario replay (mirroring ber_harness_test);
//   * traffic fixed-point skip accounting;
//   * idle time advance: advance_idle(n) and run(n) against n step() calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "noc/fabric.hpp"
#include "noc/sweep_harness.hpp"
#include "noc/traffic.hpp"
#include "support/helpers.hpp"
#include "support/reference_fabric.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

NocConfig make_config(GridDim dim, int depth = 4) {
  NocConfig cfg;
  cfg.dim = dim;
  cfg.buffer_depth = depth;
  return cfg;
}

// ---------------------------------------------------------------------------
// Flat-vs-reference equivalence machinery
// ---------------------------------------------------------------------------

struct ScheduledSend {
  int cycle = 0;
  Message msg;
};

/// One delivered message with its arrival cycle: (cycle, node, src, tag,
/// payload). Sequences of these capture delivery order per node exactly.
using Delivery =
    std::tuple<std::uint64_t, int, int, std::uint64_t,
               std::vector<std::uint64_t>>;

struct Outcome {
  std::vector<Delivery> deliveries;
  bool drained = false;  ///< fabric reached idle (no max_cycles truncation)
  std::uint64_t final_cycle = 0;
  std::vector<TileActivity> tiles;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::size_t lat_count = 0;
  double lat_mean = 0.0;
  double lat_min = 0.0;
  double lat_max = 0.0;
};

/// Pops every delivered message into `out`, stamped with the current cycle.
template <class FabricT>
void receive_all(FabricT& fabric, Outcome& out) {
  for (int node = 0; node < fabric.node_count(); ++node)
    while (auto got = fabric.try_receive(node))
      out.deliveries.emplace_back(fabric.now(), node, got->src, got->tag,
                                  got->payload);
}

/// Records the fabric's clock, idleness, and every NocStats counter.
template <class FabricT>
void record_counters(const FabricT& fabric, Outcome& out) {
  out.drained = fabric.idle();
  out.final_cycle = fabric.now();
  const NetworkStats& st = fabric.stats();
  for (int t = 0; t < fabric.node_count(); ++t)
    out.tiles.push_back(st.tile(t));
  out.packets = st.packets_delivered();
  out.flits = st.flits_delivered();
  out.lat_count = st.packet_latency().count();
  out.lat_mean = st.packet_latency().mean();
  out.lat_min = st.packet_latency().min();
  out.lat_max = st.packet_latency().max();
}

/// Feeds the schedule (which must be sorted by cycle — sends are consumed
/// in index order) into a fresh fabric of type FabricT, stepping until
/// everything drains; records the complete observable behavior.
template <class FabricT>
Outcome drive(const NocConfig& cfg,
              const std::vector<ScheduledSend>& schedule,
              int max_cycles = 500000) {
  FabricT fabric(cfg);
  Outcome out;
  std::size_t next = 0;
  int cycle = 0;
  while (next < schedule.size() || !fabric.idle()) {
    if (cycle > max_cycles) break;  // out.drained stays false and fails
    while (next < schedule.size() && schedule[next].cycle <= cycle)
      fabric.send(schedule[next++].msg);
    fabric.step();
    ++cycle;
    receive_all(fabric, out);
  }
  record_counters(fabric, out);
  return out;
}

void expect_bit_identical(const Outcome& ref, const Outcome& flat) {
  EXPECT_EQ(ref.final_cycle, flat.final_cycle) << "cycle counts diverged";
  EXPECT_EQ(ref.deliveries, flat.deliveries)
      << "delivery stream (order/cycle/contents) diverged";
  EXPECT_EQ(ref.packets, flat.packets);
  EXPECT_EQ(ref.flits, flat.flits);
  EXPECT_EQ(ref.lat_count, flat.lat_count);
  EXPECT_EQ(ref.lat_mean, flat.lat_mean);
  EXPECT_EQ(ref.lat_min, flat.lat_min);
  EXPECT_EQ(ref.lat_max, flat.lat_max);
  ASSERT_EQ(ref.tiles.size(), flat.tiles.size());
  for (std::size_t t = 0; t < ref.tiles.size(); ++t) {
    const TileActivity& a = ref.tiles[t];
    const TileActivity& b = flat.tiles[t];
    EXPECT_EQ(a.buffer_writes, b.buffer_writes) << "tile " << t;
    EXPECT_EQ(a.buffer_reads, b.buffer_reads) << "tile " << t;
    EXPECT_EQ(a.crossbar_traversals, b.crossbar_traversals) << "tile " << t;
    EXPECT_EQ(a.arbitrations, b.arbitrations) << "tile " << t;
    EXPECT_EQ(a.link_flits, b.link_flits) << "tile " << t;
    EXPECT_EQ(a.injected_flits, b.injected_flits) << "tile " << t;
    EXPECT_EQ(a.ejected_flits, b.ejected_flits) << "tile " << t;
  }
}

void expect_engines_agree(const NocConfig& cfg,
                          const std::vector<ScheduledSend>& schedule) {
  const Outcome ref = drive<ReferenceFabric>(cfg, schedule);
  const Outcome flat = drive<Fabric>(cfg, schedule);
  // Guard against a common-mode hang: identical truncated outcomes from
  // both engines would otherwise compare equal.
  EXPECT_TRUE(ref.drained);
  EXPECT_TRUE(flat.drained);
  EXPECT_EQ(flat.deliveries.size(), schedule.size())
      << "every scheduled message must be delivered";
  expect_bit_identical(ref, flat);
}

/// Bernoulli schedule under a traffic pattern. Destinations come from a
/// real TrafficGenerator (on a scratch fabric) so the schedule exercises
/// exactly the shipped pattern definitions.
std::vector<ScheduledSend> pattern_schedule(const NocConfig& cfg,
                                            TrafficPattern pattern,
                                            int cycles, double rate,
                                            int words, std::uint64_t seed) {
  Fabric scratch(cfg);
  TrafficGenerator gen(scratch, pattern, rate, words, Rng(seed));
  Rng coin(seed * 7919 + 1);
  std::vector<ScheduledSend> out;
  const double p = rate / words;
  for (int c = 0; c < cycles; ++c)
    for (int src = 0; src < cfg.dim.node_count(); ++src) {
      if (!coin.next_bool(p)) continue;
      const int dst = gen.destination(src);
      if (dst == src) continue;
      ScheduledSend s;
      s.cycle = c;
      s.msg.src = src;
      s.msg.dst = dst;
      s.msg.tag = out.size();
      s.msg.payload.assign(static_cast<std::size_t>(words),
                           static_cast<std::uint64_t>(src) * 101u +
                               static_cast<std::uint64_t>(c));
      out.push_back(std::move(s));
    }
  return out;
}

TEST(FlatVsReference, AllTrafficPatterns) {
  const NocConfig cfg = make_config({4, 4});
  for (TrafficPattern p :
       {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose,
        TrafficPattern::kBitComplement, TrafficPattern::kHotspot,
        TrafficPattern::kNeighbor}) {
    SCOPED_TRACE(to_string(p));
    expect_engines_agree(cfg, pattern_schedule(cfg, p, 300, 0.25, 3, 17));
  }
}

TEST(FlatVsReference, MeshShapes2x2Through8x8) {
  for (GridDim dim : {GridDim{2, 2}, GridDim{3, 3}, GridDim{4, 4},
                      GridDim{5, 3}, GridDim{6, 4}, GridDim{8, 8}}) {
    SCOPED_TRACE(to_string(dim));
    const NocConfig cfg = make_config(dim);
    expect_engines_agree(
        cfg, pattern_schedule(cfg, TrafficPattern::kUniformRandom, 250, 0.30,
                              4, 23));
  }
}

TEST(FlatVsReference, BufferDepths1Through8) {
  for (int depth : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    const NocConfig cfg = make_config({4, 4}, depth);
    expect_engines_agree(
        cfg, pattern_schedule(cfg, TrafficPattern::kUniformRandom, 200, 0.35,
                              5, 31));
  }
}

TEST(FlatVsReference, WormholeContentionAllToOne) {
  // Long packets (much deeper than any FIFO) from every node into one
  // sink maximize wormhole blocking, credit stalls, and round-robin churn.
  for (int depth : {1, 4}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    const NocConfig cfg = make_config({4, 4}, depth);
    std::vector<ScheduledSend> schedule;
    for (int round = 0; round < 3; ++round)
      for (int s = 1; s < 16; ++s) {
        ScheduledSend snd;
        snd.cycle = round * 5;
        snd.msg.src = s;
        snd.msg.dst = 0;
        snd.msg.tag = schedule.size();
        snd.msg.payload.assign(64, static_cast<std::uint64_t>(s));
        schedule.push_back(std::move(snd));
      }
    // Crossing long packet out of the hotspot against the incoming flood.
    ScheduledSend cross;
    cross.cycle = 2;
    cross.msg.src = 0;
    cross.msg.dst = 15;
    cross.msg.tag = 999;
    cross.msg.payload.assign(64, 7);
    schedule.push_back(std::move(cross));
    // drive() consumes sends in index order, so restore cycle order for
    // the out-of-order cross entry.
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ScheduledSend& a, const ScheduledSend& b) {
                       return a.cycle < b.cycle;
                     });
    expect_engines_agree(cfg, schedule);
  }
}

TEST(FlatVsReference, EmptyAndLongPayloads) {
  const NocConfig cfg = make_config({4, 4});
  std::vector<ScheduledSend> schedule;
  ScheduledSend empty;  // empty payload: one flit, delivered as one zero
  empty.cycle = 0;
  empty.msg.src = 1;
  empty.msg.dst = 14;
  empty.msg.tag = 1;
  schedule.push_back(empty);
  ScheduledSend lng;  // 200 words: wormhole continuation across the mesh
  lng.cycle = 1;
  lng.msg.src = 3;
  lng.msg.dst = 12;
  lng.msg.tag = 2;
  for (std::uint64_t i = 0; i < 200; ++i) lng.msg.payload.push_back(i * i);
  schedule.push_back(lng);
  const Outcome flat = drive<Fabric>(cfg, schedule);
  expect_engines_agree(cfg, schedule);
  // Content spot-check on the flat engine's deliveries.
  ASSERT_EQ(flat.deliveries.size(), 2u);
  for (const Delivery& d : flat.deliveries) {
    if (std::get<3>(d) == 1) {
      EXPECT_EQ(std::get<4>(d), std::vector<std::uint64_t>{0});
    } else {
      ASSERT_EQ(std::get<4>(d).size(), 200u);
      EXPECT_EQ(std::get<4>(d)[9], 81u);
    }
  }
}

// ---------------------------------------------------------------------------
// Idle time advance
// ---------------------------------------------------------------------------

/// Sends a corner-to-corner and a crossing message at `fabric`'s sources.
void send_pair(Fabric& fabric, std::uint64_t tag) {
  Message a;
  a.src = 0;
  a.dst = 15;
  a.tag = tag;
  a.payload.assign(6, tag);
  fabric.send(a);
  Message b;
  b.src = 12;
  b.dst = 3;
  b.tag = tag + 1;
  b.payload.assign(3, tag);
  fabric.send(b);
}

/// Traffic, drained, then `advance` on an idle fabric, then more traffic:
/// the second batch sees the advanced clock in its latencies.
template <class Advance>
Outcome idle_gap(Advance advance) {
  Fabric fabric(make_config({4, 4}));
  Outcome out;
  send_pair(fabric, 10);
  fabric.drain();
  receive_all(fabric, out);
  EXPECT_TRUE(fabric.idle());
  advance(fabric);
  send_pair(fabric, 20);
  fabric.drain();
  receive_all(fabric, out);
  record_counters(fabric, out);
  return out;
}

TEST(IdleAdvance, PristineAdvanceAndRunEqualStepping) {
  constexpr int kGap = 1000;
  const Outcome stepped = idle_gap([](Fabric& f) {
    for (int i = 0; i < kGap; ++i) f.step();
  });
  const Outcome advanced =
      idle_gap([](Fabric& f) { f.advance_idle(static_cast<Cycle>(kGap)); });
  const Outcome ran = idle_gap([](Fabric& f) { f.run(kGap); });
  ASSERT_EQ(stepped.deliveries.size(), 4u);
  EXPECT_GT(stepped.final_cycle, static_cast<std::uint64_t>(kGap));
  expect_bit_identical(stepped, advanced);
  expect_bit_identical(stepped, ran);
}

TEST(IdleAdvance, RunAcrossTheDrainEqualsStepping) {
  // run() starts on a busy fabric and goes idle mid-window.
  const NocConfig cfg = make_config({4, 4});
  Fabric stepped(cfg);
  Fabric ran(cfg);
  send_pair(stepped, 1);
  send_pair(ran, 1);
  for (int i = 0; i < 300; ++i) stepped.step();
  ran.run(300);
  Outcome a;
  Outcome b;
  receive_all(stepped, a);
  receive_all(ran, b);
  record_counters(stepped, a);
  record_counters(ran, b);
  EXPECT_TRUE(a.drained);
  EXPECT_EQ(a.deliveries.size(), 2u);
  expect_bit_identical(a, b);
}

TEST(IdleAdvance, AdvanceIdleRejectsABusyFabric) {
  Fabric fabric(make_config({4, 4}));
  send_pair(fabric, 1);
  EXPECT_THROW(fabric.advance_idle(5), CheckError);  // queued at the NI
  fabric.step();
  EXPECT_THROW(fabric.advance_idle(5), CheckError);  // flits in flight
  fabric.drain();
  EXPECT_EQ(fabric.unread_deliveries(), 2);
  EXPECT_NO_THROW(fabric.advance_idle(5));  // unread deliveries are fine
  // A halted NI still holds its queued message: run() keeps stepping.
  fabric.set_injection_enabled(2, false);
  Message m;
  m.src = 2;
  m.dst = 7;
  fabric.send(m);
  EXPECT_THROW(fabric.advance_idle(5), CheckError);
  const Cycle before = fabric.now();
  fabric.run(5);
  EXPECT_EQ(fabric.now(), before + 5);
  EXPECT_FALSE(fabric.idle());
  fabric.set_injection_enabled(2, true);
  fabric.drain();
  EXPECT_EQ(fabric.unread_deliveries(), 3);
  EXPECT_TRUE(fabric.try_receive(7).has_value());
  EXPECT_FALSE(fabric.try_receive(7).has_value());
  EXPECT_EQ(fabric.unread_deliveries(), 2);
}

// ---------------------------------------------------------------------------
// Message recycling API
// ---------------------------------------------------------------------------

TEST(FabricRecycling, AcquireSendReceiveRecycleRoundTrip) {
  Fabric fabric(make_config({4, 4}));
  for (int round = 0; round < 50; ++round) {
    Message m = fabric.acquire_message();
    EXPECT_TRUE(m.payload.empty());
    m.src = round % 16;
    m.dst = (round + 5) % 16;
    m.tag = static_cast<std::uint64_t>(round);
    m.payload.assign(6, static_cast<std::uint64_t>(round) * 3u);
    fabric.send(std::move(m));
    fabric.drain();
    auto got = fabric.try_receive((round + 5) % 16);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, static_cast<std::uint64_t>(round));
    EXPECT_EQ(got->payload,
              std::vector<std::uint64_t>(6, static_cast<std::uint64_t>(round) *
                                                3u));
    fabric.recycle(std::move(*got));
  }
}

// ---------------------------------------------------------------------------
// Skip accounting
// ---------------------------------------------------------------------------

/// Offered load in flits/node/cycle, fixed-point skips included: every
/// injection draw, whether it sent a message or hit a fixed point.
double offered_flit_rate(const TrafficGenerator& gen, int message_words,
                         int nodes, int cycles) {
  return static_cast<double>(gen.messages_sent() + gen.messages_skipped()) *
         message_words / (static_cast<double>(nodes) * cycles);
}

TEST(TrafficSkips, FixedPointDrawsAreCountedNotLost) {
  // Transpose on a square mesh fixes the diagonal: skips must be counted
  // and offered load (incl. skips) must track the configured rate.
  Fabric fabric(make_config({4, 4}));
  TrafficGenerator gen(fabric, TrafficPattern::kTranspose, 0.2, 2, Rng(5));
  gen.run(2000);
  EXPECT_GT(gen.messages_skipped(), 0u);
  EXPECT_NEAR(offered_flit_rate(gen, 2, 16, 2000), 0.2, 0.05);
  // ~4 of 16 sources sit on the diagonal, so ~1/4 of draws skip.
  const double skip_fraction =
      static_cast<double>(gen.messages_skipped()) /
      static_cast<double>(gen.messages_sent() + gen.messages_skipped());
  EXPECT_NEAR(skip_fraction, 0.25, 0.08);
}

TEST(TrafficSkips, UniformNeverSkips) {
  Fabric fabric(make_config({4, 4}));
  TrafficGenerator gen(fabric, TrafficPattern::kUniformRandom, 0.2, 2,
                       Rng(5));
  gen.run(1000);
  EXPECT_EQ(gen.messages_skipped(), 0u);
}

TEST(TrafficSkips, HotspotNodeSkipsItsOwnDraws) {
  Fabric fabric(make_config({4, 4}));
  TrafficGenerator gen(fabric, TrafficPattern::kHotspot, 0.1, 2, Rng(5),
                       /*hotspot=*/3);
  gen.run(2000);
  EXPECT_GT(gen.messages_skipped(), 0u);  // node 3's draws
}

// ---------------------------------------------------------------------------
// Scenario-sweep harness
// ---------------------------------------------------------------------------

SweepConfig small_sweep() {
  SweepConfig cfg;
  cfg.patterns = {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose,
                  TrafficPattern::kBitComplement};
  cfg.mesh_sides = {4, 5};
  cfg.injection_rates = {0.05, 0.20};
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  cfg.seed = 77;
  return cfg;
}

TEST(SweepHarness, ResultsAreThreadCountInvariant) {
  SweepConfig cfg = small_sweep();
  cfg.threads = 1;
  const std::vector<SweepPoint> baseline = run_noc_sweep(cfg);
  ASSERT_EQ(baseline.size(), 12u);
  for (int threads : {2, 4, 7}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    const std::vector<SweepPoint> pts = run_noc_sweep(cfg);
    ASSERT_EQ(pts.size(), baseline.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
      EXPECT_EQ(sweep_point_diff(baseline[i], pts[i]), "") << "scenario " << i;
  }
}

TEST(SweepHarness, SingleScenarioReplayMatchesSweep) {
  SweepConfig cfg = small_sweep();
  cfg.threads = 3;
  const std::vector<SweepPoint> sweep = run_noc_sweep(cfg);
  const std::vector<SweepScenario> grid = cfg.scenarios();
  for (int i : {0, 5, 11}) {
    SCOPED_TRACE("scenario=" + std::to_string(i));
    const SweepPoint replay = run_noc_scenario(
        grid[static_cast<std::size_t>(i)], cfg, i);
    EXPECT_EQ(sweep_point_diff(sweep[static_cast<std::size_t>(i)], replay),
              "");
  }
}

TEST(SweepHarness, ScenarioGridOrderIsStable) {
  const SweepConfig cfg = small_sweep();
  const std::vector<SweepScenario> grid = cfg.scenarios();
  ASSERT_EQ(grid.size(), 3u * 2u * 2u);
  // Pattern-major, then mesh side, then rate.
  EXPECT_EQ(grid[0].pattern, TrafficPattern::kUniformRandom);
  EXPECT_EQ(grid[0].dim.width, 4);
  EXPECT_EQ(grid[0].injection_rate, 0.05);
  EXPECT_EQ(grid[1].injection_rate, 0.20);
  EXPECT_EQ(grid[2].dim.width, 5);
  EXPECT_EQ(grid[4].pattern, TrafficPattern::kTranspose);
  EXPECT_EQ(grid[8].pattern, TrafficPattern::kBitComplement);
}

TEST(SweepHarness, ReportsOfferedAndInjectedLoadSeparately) {
  SweepConfig cfg = small_sweep();
  cfg.patterns = {TrafficPattern::kTranspose};  // diagonal fixed points
  cfg.mesh_sides = {4};
  cfg.injection_rates = {0.2};
  const std::vector<SweepPoint> pts = run_noc_sweep(cfg);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].messages_skipped, 0u);
  EXPECT_GT(pts[0].offered_flit_rate, pts[0].injected_flit_rate);
  EXPECT_NEAR(pts[0].offered_flit_rate, 0.2, 0.05);
}

TEST(SweepHarness, SaturatedHotspotShowsAcceptedBelowOffered) {
  // All-to-one at high rate: the sink ejects one flit per cycle, so the
  // per-node accepted rate must sit far below offered. (Drain-phase
  // arrivals are excluded from accepted throughput — counting them would
  // make every scenario look unsaturated.)
  SweepConfig cfg = small_sweep();
  cfg.patterns = {TrafficPattern::kHotspot};
  cfg.mesh_sides = {4};
  cfg.injection_rates = {0.5};
  cfg.measure_cycles = 600;
  const std::vector<SweepPoint> pts = run_noc_sweep(cfg);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].offered_flit_rate, 0.4);
  EXPECT_LT(pts[0].accepted_flit_rate, 0.5 * pts[0].offered_flit_rate);
}

TEST(SweepHarness, ValidatesConfig) {
  SweepConfig cfg = small_sweep();
  cfg.injection_rates.clear();
  EXPECT_THROW(run_noc_sweep(cfg), CheckError);
  cfg = small_sweep();
  cfg.threads = 0;
  EXPECT_THROW(run_noc_sweep(cfg), CheckError);
  cfg = small_sweep();
  cfg.mesh_sides = {1};
  EXPECT_THROW(run_noc_sweep(cfg), CheckError);
  cfg = small_sweep();
  cfg.injection_rates = {1.5};
  EXPECT_THROW(run_noc_sweep(cfg), CheckError);
}

}  // namespace
}  // namespace renoc
