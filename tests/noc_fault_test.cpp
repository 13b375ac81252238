// Tests for the degraded-fabric NoC: deterministic fault plans, the
// west-first adaptive route tables, the NI delivery guarantees (timeout +
// bounded retry, duplicate suppression, unreachable refusal), a migration
// that loses a state packet, and the fault axes of the sweep harness
// (thread-count invariance, O(1) replay, and the drain of the benchmark's
// degraded scenarios).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/migration_controller.hpp"
#include "core/transform.hpp"
#include "noc/fabric.hpp"
#include "noc/fault_model.hpp"
#include "noc/routing.hpp"
#include "noc/sweep_harness.hpp"
#include "noc/traffic.hpp"
#include "support/alloc_guard.hpp"
#include "support/helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"

namespace renoc {
namespace {

NocConfig mesh(int side) {
  NocConfig cfg;
  cfg.dim = GridDim{side, side};
  return cfg;
}

bool events_equal(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.cycle == b.cycle && a.node == b.node &&
         a.port == b.port;
}

bool plans_equal(const FaultPlan& a, const FaultPlan& b) {
  return a.events.size() == b.events.size() &&
         std::equal(a.events.begin(), a.events.end(), b.events.begin(),
                    events_equal);
}

// --- Fault plans -----------------------------------------------------------

TEST(FaultPlanTest, SameSeedAndIndexReplaysBitIdentically) {
  const GridDim dim{4, 4};
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDead;
  spec.count = 4;
  spec.onset_min = 10;
  spec.onset_max = 500;
  spec.validate(dim);
  const FaultPlan a = make_fault_plan(dim, spec, fault_scenario_rng(9, 3));
  const FaultPlan b = make_fault_plan(dim, spec, fault_scenario_rng(9, 3));
  EXPECT_TRUE(plans_equal(a, b));
  // A different scenario index is a different stream, hence a different
  // plan (collision odds over 4 victims x 491 cycles are negligible).
  const FaultPlan c = make_fault_plan(dim, spec, fault_scenario_rng(9, 4));
  EXPECT_FALSE(plans_equal(a, c));
}

TEST(FaultPlanTest, LinkPlanHasDistinctInBoundsSortedVictims) {
  const GridDim dim{4, 4};
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDead;
  spec.count = 5;
  spec.onset_min = 20;
  spec.onset_max = 300;
  const FaultPlan plan =
      make_fault_plan(dim, spec, fault_scenario_rng(13, 0));
  ASSERT_EQ(plan.events.size(), 5u);
  std::set<std::pair<int, int>> victims;
  Cycle prev = 0;
  for (const FaultEvent& ev : plan.events) {
    EXPECT_EQ(ev.kind, FaultEvent::Kind::kLinkDown);
    EXPECT_GE(ev.cycle, spec.onset_min);
    EXPECT_LE(ev.cycle, spec.onset_max);
    EXPECT_GE(ev.cycle, prev);  // sorted by cycle
    prev = ev.cycle;
    EXPECT_GE(ev.node, 0);
    EXPECT_LT(ev.node, dim.node_count());
    EXPECT_GE(ev.port, 0);
    EXPECT_LT(ev.port, 4);
    EXPECT_TRUE(victims.insert({ev.node, ev.port}).second)
        << "victim sampled twice";
  }
}

TEST(FaultPlanTest, FlakyLinksExpandIntoDownUpPairs) {
  const GridDim dim{4, 4};
  FaultSpec spec;
  spec.kind = FaultKind::kLinkFlaky;
  spec.count = 3;
  spec.onset_min = 50;
  spec.onset_max = 200;
  spec.flake_min = 30;
  spec.flake_max = 90;
  const FaultPlan plan =
      make_fault_plan(dim, spec, fault_scenario_rng(17, 2));
  ASSERT_EQ(plan.events.size(), 6u);
  std::vector<FaultEvent> downs;
  std::vector<FaultEvent> ups;
  for (const FaultEvent& ev : plan.events)
    (ev.kind == FaultEvent::Kind::kLinkDown ? downs : ups).push_back(ev);
  ASSERT_EQ(downs.size(), 3u);
  ASSERT_EQ(ups.size(), 3u);
  for (const FaultEvent& down : downs) {
    const auto up = std::find_if(
        ups.begin(), ups.end(), [&down](const FaultEvent& ev) {
          return ev.node == down.node && ev.port == down.port;
        });
    ASSERT_NE(up, ups.end()) << "down event without a matching recovery";
    EXPECT_GT(up->cycle, down.cycle);
    EXPECT_GE(up->cycle - down.cycle, spec.flake_min);
    EXPECT_LE(up->cycle - down.cycle, spec.flake_max);
  }
}

TEST(FaultPlanTest, FaultStreamIsSaltedAwayFromTrafficStream) {
  // The fault plan and the traffic of one sweep scenario derive from the
  // same (seed, index) pair; the salt keeps the streams distinct.
  for (int index : {0, 1, 7}) {
    Rng fault = fault_scenario_rng(42, index);
    Rng traffic = sweep::scenario_rng(42, index);
    EXPECT_NE(fault.next_u64(), traffic.next_u64());
  }
}

TEST(FaultPlanTest, ValidateIgnoresFlakeWindowForNonFlakyKinds) {
  // Dead-link specs may leave the (unused) flake fields zeroed; only a
  // flaky spec owns the flake-window invariant.
  const GridDim dim{4, 4};
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDead;
  spec.count = 2;
  spec.flake_min = 0;
  spec.flake_max = 0;
  EXPECT_NO_THROW(spec.validate(dim));
  spec.kind = FaultKind::kLinkFlaky;
  EXPECT_THROW(spec.validate(dim), CheckError);
}

// --- West-first turn model -------------------------------------------------

TEST(WestFirstTest, TurnRules) {
  const Direction mesh_dirs[] = {Direction::kNorth, Direction::kSouth,
                                 Direction::kEast, Direction::kWest};
  for (Direction d : mesh_dirs) {
    EXPECT_TRUE(turn_allowed(Direction::kLocal, d));  // injection
    EXPECT_TRUE(turn_allowed(d, Direction::kLocal));  // ejection
    EXPECT_TRUE(turn_allowed(d, d));                  // going straight
    EXPECT_FALSE(turn_allowed(d, opposite(d)));       // 180-degree turn
  }
  // The two turns into west are the ones west-first forbids...
  EXPECT_FALSE(turn_allowed(Direction::kNorth, Direction::kWest));
  EXPECT_FALSE(turn_allowed(Direction::kSouth, Direction::kWest));
  // ...while turns out of west and into east stay legal.
  EXPECT_TRUE(turn_allowed(Direction::kWest, Direction::kNorth));
  EXPECT_TRUE(turn_allowed(Direction::kWest, Direction::kSouth));
  EXPECT_TRUE(turn_allowed(Direction::kNorth, Direction::kEast));
  EXPECT_TRUE(turn_allowed(Direction::kSouth, Direction::kEast));
}

// --- Adaptive route tables -------------------------------------------------

struct Topology {
  std::vector<std::uint8_t> link_up;
};

Topology live_mesh(const GridDim& dim) {
  const int n = dim.node_count();
  Topology t;
  t.link_up.assign(static_cast<std::size_t>(n) * 4, 0);
  for (int i = 0; i < n; ++i) {
    const GridCoord c = index_to_coord(i, dim);
    for (int d = 0; d < 4; ++d) {
      const GridCoord nb = neighbor(c, static_cast<Direction>(d));
      if (nb.x >= 0 && nb.x < dim.width && nb.y >= 0 && nb.y < dim.height)
        t.link_up[static_cast<std::size_t>(i) * 4 +
                  static_cast<std::size_t>(d)] = 1;
    }
  }
  return t;
}

// Follows the table from src to dst, asserting every step is a live,
// turn-legal move. Returns the hop count, or -1 if the table reports the
// pair unreachable at any point (never loops: the hop budget fails the
// test instead).
int walk_route(const GridDim& dim, const std::vector<std::uint8_t>& table,
               const Topology& topo, int src, int dst) {
  const int n = dim.node_count();
  int node = src;
  Direction moving = Direction::kLocal;
  for (int hops = 0; hops <= kDirectionCount * n; ++hops) {
    const int in = static_cast<int>(moving == Direction::kLocal
                                        ? Direction::kLocal
                                        : opposite(moving));
    const std::uint8_t out = table[static_cast<std::size_t>(
        (node * kDirectionCount + in) * n + dst)];
    if (out == kUnreachableRoute) return -1;
    const Direction od = static_cast<Direction>(out);
    EXPECT_TRUE(turn_allowed(moving, od))
        << "illegal turn at node " << node << " for dst " << dst;
    if (od == Direction::kLocal) {
      EXPECT_EQ(node, dst) << "route ejected at the wrong node";
      return hops;
    }
    EXPECT_NE(topo.link_up[static_cast<std::size_t>(node) * 4 +
                           static_cast<std::size_t>(out)],
              0)
        << "route crosses dead link " << node << " dir " << int(out);
    node = coord_to_index(neighbor(index_to_coord(node, dim), od), dim);
    moving = od;
  }
  ADD_FAILURE() << "route " << src << "->" << dst << " loops";
  return -2;
}

TEST(AdaptiveRouteTest, FullyLiveMeshRoutesEveryPairMinimally) {
  for (const GridDim dim : {GridDim{4, 4}, GridDim{3, 5}, GridDim{5, 3}}) {
    const Topology topo = live_mesh(dim);
    std::vector<std::uint8_t> table;
    build_adaptive_routes(dim, topo.link_up, table);
    for (int src = 0; src < dim.node_count(); ++src)
      for (int dst = 0; dst < dim.node_count(); ++dst) {
        const GridCoord a = index_to_coord(src, dim);
        const GridCoord b = index_to_coord(dst, dim);
        const int manhattan = std::abs(a.x - b.x) + std::abs(a.y - b.y);
        // A minimal west-first path always exists on a live mesh (west
        // hops first, then a monotone staircase), so BFS matches XY.
        EXPECT_EQ(walk_route(dim, table, topo, src, dst), manhattan)
            << src << "->" << dst << " on " << dim.width << "x"
            << dim.height;
      }
  }
}

TEST(AdaptiveRouteTest, RoutesAroundADeadEastLink) {
  const GridDim dim{4, 4};
  Topology topo = live_mesh(dim);
  const int victim = coord_to_index({1, 0}, dim);
  topo.link_up[static_cast<std::size_t>(victim) * 4 +
               static_cast<std::size_t>(static_cast<int>(
                   Direction::kEast))] = 0;
  std::vector<std::uint8_t> table;
  build_adaptive_routes(dim, topo.link_up, table);
  // Detours around a dead *east* link only need north/south-then-east
  // turns, all west-first-legal: every pair stays reachable, and
  // walk_route asserts no path crosses the dead link.
  for (int src = 0; src < dim.node_count(); ++src)
    for (int dst = 0; dst < dim.node_count(); ++dst)
      EXPECT_GE(walk_route(dim, table, topo, src, dst), 0)
          << src << "->" << dst;
}

TEST(AdaptiveRouteTest, WestCutIsMarkedUnreachableNotLooped) {
  // West-first routing takes all west hops first, so a node whose only
  // west exit dies genuinely cannot reach the column to its west: the
  // table must say so (kUnreachableRoute) instead of spinning packets.
  const GridDim dim{4, 4};
  Topology topo = live_mesh(dim);
  const int src = coord_to_index({1, 0}, dim);
  topo.link_up[static_cast<std::size_t>(src) * 4 +
               static_cast<std::size_t>(static_cast<int>(
                   Direction::kWest))] = 0;
  std::vector<std::uint8_t> table;
  build_adaptive_routes(dim, topo.link_up, table);
  for (int y = 0; y < dim.height; ++y)
    EXPECT_EQ(walk_route(dim, table, topo, src,
                         coord_to_index({0, y}, dim)),
              -1)
        << "column-0 dst should be unreachable from (1,0)";
  // The rest of the mesh keeps its west link, so (1,1) still gets there.
  EXPECT_GE(walk_route(dim, table, topo, coord_to_index({1, 1}, dim),
                       coord_to_index({0, 0}, dim)),
            0);
  // And (1,0) still reaches everything in its own column and eastward.
  EXPECT_GE(walk_route(dim, table, topo, src, coord_to_index({3, 3}, dim)),
            0);
}

// --- Delivery guarantees on a live fabric ----------------------------------

TEST(DegradedFabricTest, RetryRedeliversAfterAMidFlightLinkKill) {
  Fabric fabric(mesh(4));
  DeliveryGuardConfig guard;
  guard.timeout_cycles = 32;
  guard.ack_latency_cycles = 4;
  fabric.configure_delivery_guard(guard);
  // Kill node 0's east link while the packet's wormhole is crossing it.
  FaultPlan plan;
  plan.events.push_back(
      {FaultEvent::Kind::kLinkDown, 3, 0, static_cast<int>(Direction::kEast)});
  fabric.install_fault_plan(plan);

  Message m;
  m.src = 0;
  m.dst = 3;
  m.tag = 9;
  m.payload.assign(8, 0xAB);
  fabric.send(m);
  fabric.drain();

  EXPECT_EQ(fabric.route_epoch(), 1);
  EXPECT_FALSE(fabric.link_alive(0, static_cast<int>(Direction::kEast)));
  const NetworkStats& st = fabric.stats();
  EXPECT_EQ(st.packets_delivered(), 1u);
  EXPECT_GE(st.packets_retried(), 1u);
  EXPECT_EQ(st.packets_dropped(), 0u);
  EXPECT_EQ(st.packets_unreachable(), 0u);
  auto got = fabric.try_receive(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 0);
  EXPECT_EQ(got->tag, 9u);
  EXPECT_EQ(got->payload, std::vector<std::uint64_t>(8, 0xAB));
  EXPECT_FALSE(fabric.try_receive(3).has_value());  // exactly once
}

TEST(DegradedFabricTest, RetransmitAckRaceIsSuppressedAsDuplicate) {
  // A timeout far shorter than the delivery-notice latency forces the
  // source to retransmit messages that were in fact delivered — the
  // at-least-once race. The (src, msg_seq) filter at reassembly must
  // collapse it back to exactly-once delivery.
  Fabric fabric(mesh(4));
  DeliveryGuardConfig guard;
  guard.timeout_cycles = 8;
  guard.ack_latency_cycles = 64;
  guard.retry_budget = 3;
  fabric.configure_delivery_guard(guard);

  Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 5;
  m.payload = {10, 11, 12, 13};
  fabric.send(m);
  fabric.drain();

  const NetworkStats& st = fabric.stats();
  EXPECT_EQ(st.packets_delivered(), 1u);
  EXPECT_GE(st.packets_retried(), 1u);
  EXPECT_GE(st.duplicates_suppressed(), 1u);
  EXPECT_EQ(st.packets_dropped(), 0u);
  EXPECT_EQ(st.packets_unreachable(), 0u);
  auto got = fabric.try_receive(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, (std::vector<std::uint64_t>{10, 11, 12, 13}));
  EXPECT_FALSE(fabric.try_receive(1).has_value())
      << "duplicate reached the workload";
}

TEST(DegradedFabricTest, UnreachableDestinationRefusedAtAdmission) {
  // With its only west exit cut, (1,3) cannot reach column 0 under the
  // west-first restriction.
  Fabric fabric(mesh(4));
  const int src = coord_to_index({1, 3}, fabric.config().dim);
  FaultPlan plan;
  plan.events.push_back({FaultEvent::Kind::kLinkDown, 1, src,
                         static_cast<int>(Direction::kWest)});
  fabric.install_fault_plan(plan);
  fabric.run(4);

  EXPECT_EQ(fabric.route_epoch(), 1);
  EXPECT_FALSE(fabric.destination_reachable(src, 0));
  EXPECT_TRUE(fabric.destination_reachable(src, 15));

  // Accepted, then refused at admission and reported unreachable — not
  // spun on until the retry budget burns out.
  Message m;
  m.src = src;
  m.dst = 0;
  m.payload = {1};
  fabric.send(m);
  fabric.drain();
  const NetworkStats& st = fabric.stats();
  EXPECT_EQ(st.packets_unreachable(), 1u);
  EXPECT_EQ(st.packets_retried(), 0u);
  EXPECT_EQ(st.packets_dropped(), 0u);
  EXPECT_EQ(st.packets_delivered(), 0u);
  EXPECT_FALSE(fabric.try_receive(0).has_value());
}

TEST(DegradedFabricTest, FlakyLinkRecoversWithItsOwnRouteEpoch) {
  Fabric fabric(mesh(4));
  const int node = coord_to_index({1, 0}, fabric.config().dim);
  FaultPlan plan;
  plan.events.push_back({FaultEvent::Kind::kLinkDown, 5, node,
                         static_cast<int>(Direction::kWest)});
  plan.events.push_back({FaultEvent::Kind::kLinkUp, 60, node,
                         static_cast<int>(Direction::kWest)});
  fabric.install_fault_plan(plan);

  fabric.run(10);
  EXPECT_EQ(fabric.route_epoch(), 1);
  EXPECT_FALSE(fabric.link_alive(node, static_cast<int>(Direction::kWest)));
  // With its only west exit down, (1,0) cannot reach column 0 under the
  // west-first restriction; the fabric reports that instead of trying.
  EXPECT_FALSE(fabric.destination_reachable(node, 0));

  fabric.run(60);
  EXPECT_EQ(fabric.route_epoch(), 2);
  EXPECT_TRUE(fabric.link_alive(node, static_cast<int>(Direction::kWest)));
  EXPECT_TRUE(fabric.destination_reachable(node, 0));

  Message m;
  m.src = node;
  m.dst = 0;
  m.payload = {7};
  fabric.send(m);
  fabric.drain();
  EXPECT_EQ(fabric.stats().packets_delivered(), 1u);
  auto got = fabric.try_receive(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, std::vector<std::uint64_t>{7});
}

TEST(DegradedFabricTest, AdvanceIdleStepsThroughFaultEvents) {
  // A degraded fabric's idle window still holds events: the link fault at
  // cycle 40 must apply on its own cycle, with its own route epoch, exactly
  // as if the window had been stepped — by advance_idle and by run alike.
  auto make = [] {
    Fabric fabric(mesh(4));
    DeliveryGuardConfig guard;
    guard.timeout_cycles = 32;
    guard.ack_latency_cycles = 4;
    fabric.configure_delivery_guard(guard);
    FaultPlan plan;
    plan.events.push_back({FaultEvent::Kind::kLinkDown, 40, 1,
                           static_cast<int>(Direction::kEast)});
    fabric.install_fault_plan(plan);
    return fabric;
  };
  Fabric stepped = make();
  Fabric advanced = make();
  Fabric ran = make();
  for (int i = 0; i < 100; ++i) stepped.step();
  advanced.advance_idle(100);
  ran.run(100);
  EXPECT_EQ(advanced.route_epoch(), 1);
  EXPECT_FALSE(advanced.link_alive(1, static_cast<int>(Direction::kEast)));

  // Traffic over the rerouted region afterwards resolves identically.
  for (Fabric* f : {&stepped, &advanced, &ran}) {
    EXPECT_EQ(f->now(), 100u);
    EXPECT_EQ(f->route_epoch(), stepped.route_epoch());
    Message m;
    m.src = 0;
    m.dst = 3;
    m.payload.assign(5, 0xF00D);
    f->send(m);
    f->drain();
  }
  const NetworkStats& b = stepped.stats();
  EXPECT_EQ(b.packets_delivered(), 1u);
  for (const Fabric* f : {&advanced, &ran}) {
    EXPECT_EQ(f->now(), stepped.now());
    const NetworkStats& a = f->stats();
    EXPECT_EQ(a.packets_delivered(), b.packets_delivered());
    EXPECT_EQ(a.packets_retried(), b.packets_retried());
    EXPECT_EQ(a.packets_dropped(), b.packets_dropped());
    EXPECT_EQ(a.packets_unreachable(), b.packets_unreachable());
    EXPECT_EQ(a.packet_latency().mean(), b.packet_latency().mean());
    for (int t = 0; t < f->node_count(); ++t) {
      EXPECT_EQ(a.tile(t).link_flits, b.tile(t).link_flits) << "tile " << t;
      EXPECT_EQ(a.tile(t).arbitrations, b.tile(t).arbitrations)
          << "tile " << t;
      EXPECT_EQ(a.tile(t).buffer_writes, b.tile(t).buffer_writes)
          << "tile " << t;
    }
  }
}

TEST(DegradedFabricTest, WarmedStepIsAllocationFreeWithActiveFaultPlan) {
  Fabric fabric(mesh(4));
  fabric.configure_delivery_guard(DeliveryGuardConfig{});
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDead;
  spec.count = 2;
  spec.onset_min = 50;
  spec.onset_max = 150;
  fabric.install_fault_plan(
      make_fault_plan(fabric.config().dim, spec, fault_scenario_rng(11, 0)));
  const int n = fabric.node_count();
  const GridDim dim = fabric.config().dim;
  // Slow periodic east-neighbor traffic: stop-and-wait resolves each
  // message well inside the 64-cycle period, so queues stay bounded.
  auto pump = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      if (c % 64 == 0) {
        for (int src = 0; src < n; ++src) {
          const GridCoord co = index_to_coord(src, dim);
          Message m = fabric.acquire_message();
          m.src = src;
          m.dst = coord_to_index({(co.x + 1) % dim.width, co.y}, dim);
          m.payload.assign(4, 0x5a5aULL);
          fabric.send(std::move(m));
        }
      }
      fabric.step();
      for (int node = 0; node < n; ++node)
        while (auto msg = fabric.try_receive(node))
          fabric.recycle(std::move(*msg));
    }
  };
  pump(1600);  // all fault events, retries, and high-water marks behind us
  const AllocGuard guard;
  pump(512);
  EXPECT_EQ(guard.count(), 0)
      << "degraded-mode steady state must not allocate";
}

// --- Degraded fabric pinned to the parent engine ---------------------------
//
// The reference fabric has no degraded mode, so purge, staged-attempt
// discard and duplicate suppression have no oracle but their own past.
// Each scenario drives a Fabric directly, drains it, and compares what it
// observed with the values the engine produced before its FIFOs carried
// packet handles (reals as bit patterns).

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv1a(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

/// Everything a degraded run is pinned on. `totals` are the network sums
/// of the nine TileActivity counters in declaration order; `tile_digest`
/// folds every counter of every tile, and `delivery_digest` every received
/// message (cycle, node, src, tag, payload words) in receive order.
struct DegradedPin {
  const char* name;
  Cycle now;
  int route_epoch;
  std::uint64_t totals[9];
  std::uint64_t tile_digest;
  std::uint64_t delivered, retried, dropped, unreachable, duplicates;
  std::uint64_t latency_count;
  std::uint64_t latency_mean_bits, latency_min_bits, latency_max_bits;
  std::uint64_t delivery_digest;
};

std::array<std::uint64_t, 9> activity_words(const TileActivity& a) {
  return {a.buffer_writes,  a.buffer_reads,   a.crossbar_traversals,
          a.arbitrations,   a.link_flits,     a.injected_flits,
          a.ejected_flits,  a.pe_compute_ops, a.pe_state_words};
}

/// Drives a fabric and digests what it delivers, in receive order.
class PinDriver {
 public:
  explicit PinDriver(Fabric& fabric) : fabric_(&fabric) {}

  void step() {
    fabric_->step();
    for (int node = 0; node < fabric_->node_count(); ++node)
      while (auto msg = fabric_->try_receive(node)) {
        fnv1a(digest_, fabric_->now());
        fnv1a(digest_, static_cast<std::uint64_t>(node));
        fnv1a(digest_, static_cast<std::uint64_t>(msg->src));
        fnv1a(digest_, msg->tag);
        fnv1a(digest_, msg->payload.size());
        for (const std::uint64_t w : msg->payload) fnv1a(digest_, w);
        fabric_->recycle(std::move(*msg));
      }
  }

  void drain() {
    for (int i = 0; !fabric_->idle(); ++i) {
      ASSERT_LT(i, 1'000'000) << "degraded fabric failed to drain";
      step();
    }
  }

  DegradedPin observe(const char* name) const {
    const NetworkStats& st = fabric_->stats();
    DegradedPin got{};
    got.name = name;
    got.now = fabric_->now();
    got.route_epoch = fabric_->route_epoch();
    const auto totals = activity_words(st.total());
    std::copy(totals.begin(), totals.end(), got.totals);
    got.tile_digest = kFnvOffset;
    for (int t = 0; t < fabric_->node_count(); ++t)
      for (const std::uint64_t w : activity_words(st.tile(t)))
        fnv1a(got.tile_digest, w);
    got.delivered = st.packets_delivered();
    got.retried = st.packets_retried();
    got.dropped = st.packets_dropped();
    got.unreachable = st.packets_unreachable();
    got.duplicates = st.duplicates_suppressed();
    const RunningStats& latency = st.packet_latency();
    got.latency_count = latency.count();
    got.latency_mean_bits = std::bit_cast<std::uint64_t>(latency.mean());
    got.latency_min_bits = std::bit_cast<std::uint64_t>(latency.min());
    got.latency_max_bits = std::bit_cast<std::uint64_t>(latency.max());
    got.delivery_digest = digest_;
    return got;
  }

 private:
  Fabric* fabric_;
  std::uint64_t digest_ = kFnvOffset;
};

/// A distinct word per (message, position), so a payload word that moved
/// to the wrong message or slot changes the delivery digest.
std::uint64_t payload_word(std::uint64_t tag, std::size_t i) {
  return (tag << 8) ^ (0x9e3779b97f4a7c15ULL * (i + 1));
}

/// noc_load's degraded cells (grid indices 1, 9 and 17 of its sweep):
/// 8x8, 0.3 flits/node/cycle of 4-word messages for 2,000 cycles, four
/// flaky links with onsets inside that window, retry budget 4.
DegradedPin run_noc_load_cell(TrafficPattern pattern, int scenario_index,
                              const char* name) {
  NocConfig cfg = mesh(8);
  Fabric fabric(cfg);
  DeliveryGuardConfig guard;
  guard.retry_budget = 4;
  fabric.configure_delivery_guard(guard);
  FaultSpec spec;
  spec.kind = FaultKind::kLinkFlaky;
  spec.count = 4;
  spec.onset_min = 0;
  spec.onset_max = 2000;
  fabric.install_fault_plan(make_fault_plan(
      cfg.dim, spec, fault_scenario_rng(1, scenario_index)));
  TrafficGenerator pattern_of(fabric, pattern, 0.3, 4,
                              sweep::scenario_rng(1, scenario_index));
  Rng draws = sweep::scenario_rng(2, scenario_index);
  PinDriver driver(fabric);
  std::uint64_t tag = 0;
  for (int c = 0; c < 2000; ++c) {
    for (int src = 0; src < fabric.node_count(); ++src) {
      if (!draws.next_bool(0.3 / 4)) continue;
      const int dst = pattern_of.destination(src);
      if (dst == src) continue;
      Message m = fabric.acquire_message();
      m.src = src;
      m.dst = dst;
      m.tag = ++tag;
      for (std::size_t i = 0; i < 4; ++i)
        m.payload.push_back(payload_word(m.tag, i));
      fabric.send(std::move(m));
    }
    driver.step();
  }
  driver.drain();
  return driver.observe(name);
}

/// RetryRedeliversAfterAMidFlightLinkKill's setup.
DegradedPin run_link_kill() {
  Fabric fabric(mesh(4));
  DeliveryGuardConfig guard;
  guard.timeout_cycles = 32;
  guard.ack_latency_cycles = 4;
  fabric.configure_delivery_guard(guard);
  FaultPlan plan;
  plan.events.push_back(
      {FaultEvent::Kind::kLinkDown, 3, 0, static_cast<int>(Direction::kEast)});
  fabric.install_fault_plan(plan);
  Message m;
  m.src = 0;
  m.dst = 3;
  m.tag = 9;
  m.payload.assign(8, 0xAB);
  fabric.send(m);
  PinDriver driver(fabric);
  driver.drain();
  return driver.observe("mid-flight link kill");
}

/// RetransmitAckRaceIsSuppressedAsDuplicate's setup.
DegradedPin run_ack_race() {
  Fabric fabric(mesh(4));
  DeliveryGuardConfig guard;
  guard.timeout_cycles = 8;
  guard.ack_latency_cycles = 64;
  guard.retry_budget = 3;
  fabric.configure_delivery_guard(guard);
  Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 5;
  m.payload = {10, 11, 12, 13};
  fabric.send(m);
  PinDriver driver(fabric);
  driver.drain();
  return driver.observe("ack race");
}

std::string pin_row(const DegradedPin& p) {
  std::ostringstream os;
  os << std::hex << "{\"" << p.name << "\", " << std::dec << p.now << ", "
     << p.route_epoch << ", {";
  for (int i = 0; i < 9; ++i) os << (i ? ", " : "") << p.totals[i];
  os << "}, " << std::hex << "0x" << p.tile_digest << "u, " << std::dec
     << p.delivered << ", " << p.retried << ", " << p.dropped << ", "
     << p.unreachable << ", " << p.duplicates << ", " << p.latency_count
     << ", " << std::hex << "0x" << p.latency_mean_bits << "u, 0x"
     << p.latency_min_bits << "u, 0x" << p.latency_max_bits << "u, 0x"
     << p.delivery_digest << "u},";
  return os.str();
}

TEST(DegradedFabricTest, DrainedRunsMatchParentEngine) {
  static constexpr DegradedPin kPinned[] = {
      {"8x8 flaky hotspot", 38463, 8,
       {300208, 300192, 300192, 75048, 263216, 36992, 36976, 0, 0},
       0x89fbc2f9750a3059u, 9224, 22, 0, 166, 20, 9224,
       0x405efcdeeae83e3eu, 0x401c000000000000u, 0x40d2248000000000u,
       0xcc3acc7854e44a09u},
      {"8x8 flaky transpose", 8400, 8,
       {226035, 226030, 226030, 56509, 193398, 32637, 32632, 0, 0},
       0x5309cbd9f31d1ab1u, 8158, 2, 0, 207, 0, 8158,
       0x4026b934c81495deu, 0x4018000000000000u, 0x4043000000000000u,
       0xb58141eb17b3070fu},
      {"8x8 flaky uniform", 7913, 8,
       {239610, 239606, 239606, 59903, 201906, 37704, 37700, 0, 0},
       0xd8dd2e7c9d95aeedu, 9425, 1, 0, 59, 0, 9425,
       0x4024678a719735b2u, 0x4014000000000000u, 0x403d000000000000u,
       0x757d291b1df5146au},
      {"mid-flight link kill", 50, 1,
       {51, 49, 49, 7, 41, 10, 8, 0, 0},
       0x840ce6d8cf746ceeu, 1, 1, 0, 0, 0, 1,
       0x402a000000000000u, 0x402a000000000000u, 0x402a000000000000u,
       0xb681fca07c05b29u},
      {"ack race", 70, 0,
       {32, 32, 32, 8, 16, 16, 16, 0, 0},
       0xcfa16fdde5bac2b5u, 1, 3, 0, 0, 3, 1,
       0x4014000000000000u, 0x4014000000000000u, 0x4014000000000000u,
       0xcd0d8101fe6aa6c3u},
  };
  const DegradedPin got[] = {
      run_noc_load_cell(TrafficPattern::kHotspot, 1, "8x8 flaky hotspot"),
      run_noc_load_cell(TrafficPattern::kTranspose, 9, "8x8 flaky transpose"),
      run_noc_load_cell(TrafficPattern::kUniformRandom, 17,
                        "8x8 flaky uniform"),
      run_link_kill(),
      run_ack_race(),
  };
  ASSERT_EQ(std::size(kPinned), std::size(got));
  for (std::size_t i = 0; i < std::size(got); ++i) {
    const DegradedPin& pin = kPinned[i];
    const DegradedPin& g = got[i];
    SCOPED_TRACE(std::string(pin.name) + "; got " + pin_row(g));
    EXPECT_STREQ(g.name, pin.name);
    EXPECT_EQ(g.now, pin.now);
    EXPECT_EQ(g.route_epoch, pin.route_epoch);
    for (int k = 0; k < 9; ++k)
      EXPECT_EQ(g.totals[k], pin.totals[k]) << "TileActivity counter " << k;
    EXPECT_EQ(g.tile_digest, pin.tile_digest);
    EXPECT_EQ(g.delivered, pin.delivered);
    EXPECT_EQ(g.retried, pin.retried);
    EXPECT_EQ(g.dropped, pin.dropped);
    EXPECT_EQ(g.unreachable, pin.unreachable);
    EXPECT_EQ(g.duplicates, pin.duplicates);
    EXPECT_EQ(g.latency_count, pin.latency_count);
    EXPECT_EQ(g.latency_mean_bits, pin.latency_mean_bits);
    EXPECT_EQ(g.latency_min_bits, pin.latency_min_bits);
    EXPECT_EQ(g.latency_max_bits, pin.latency_max_bits);
    EXPECT_EQ(g.delivery_digest, pin.delivery_digest);
  }
}

// --- Migration on a cut fabric ----------------------------------------------

TEST(MigrationOnCutFabricTest, LostStatePacketThrows) {
  // Rotation moves (1,3)'s state to (0,1), which a cut west link at (1,3)
  // makes unreachable: the packet is refused, and the migration fails
  // instead of resuming on a state it never received. It fails with the
  // PEs resumed where they were: every NI injects again, the phase's
  // delivered state packets are consumed, and nothing is committed. A cut
  // west link at (3,1) loses (3,1)'s state, which its phase sends ahead of
  // three state packets that do arrive.
  for (const GridCoord cut : {GridCoord{1, 3}, GridCoord{3, 1}}) {
    SCOPED_TRACE("west link cut at (" + std::to_string(cut.x) + "," +
                 std::to_string(cut.y) + ")");
    Fabric fabric(mesh(4));
    FaultPlan plan;
    plan.events.push_back({FaultEvent::Kind::kLinkDown, 1,
                           coord_to_index(cut, fabric.config().dim),
                           static_cast<int>(Direction::kWest)});
    fabric.install_fault_plan(plan);
    fabric.run(3);

    MigrationController controller(fabric,
                                   Transform{TransformKind::kRotation, 0});
    std::vector<int> placement = identity_permutation(16);
    EXPECT_THROW(controller.migrate(placement, std::vector<int>(16, 8)),
                 CheckError);
    EXPECT_EQ(fabric.stats().packets_unreachable(), 1u);
    int enabled = 0;
    for (int n = 0; n < fabric.node_count(); ++n)
      enabled += fabric.injection_enabled(n) ? 1 : 0;
    EXPECT_EQ(enabled, 16);
    EXPECT_EQ(fabric.unread_deliveries(), 0);
    EXPECT_EQ(placement, identity_permutation(16));
    EXPECT_EQ(controller.migrations(), 0);
  }
}

// --- Sweep fault axes ------------------------------------------------------

SweepConfig fault_sweep_config() {
  SweepConfig cfg;
  cfg.patterns = {TrafficPattern::kUniformRandom};
  cfg.mesh_sides = {4};
  cfg.injection_rates = {0.05};
  cfg.fault_counts = {0, 2};
  cfg.fault_kinds = {FaultKind::kLinkDead, FaultKind::kLinkFlaky};
  cfg.retry_budgets = {kGuardDisabled, 2};
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  cfg.seed = 5;
  return cfg;
}

TEST(FaultSweepTest, BitIdenticalForAnyThreadCount) {
  SweepConfig cfg = fault_sweep_config();
  cfg.threads = 1;
  const std::vector<SweepPoint> baseline = run_noc_sweep(cfg);
  ASSERT_EQ(baseline.size(), 8u);
  for (int threads : {2, 4, 7}) {
    cfg.threads = threads;
    const std::vector<SweepPoint> points = run_noc_sweep(cfg);
    ASSERT_EQ(points.size(), baseline.size());
    for (std::size_t i = 0; i < points.size(); ++i)
      EXPECT_EQ(sweep_point_diff(points[i], baseline[i]), "")
          << "scenario " << i << " diverged at " << threads << " threads";
  }
}

TEST(FaultSweepTest, AnyFaultScenarioReplaysInIsolation) {
  SweepConfig cfg = fault_sweep_config();
  cfg.threads = 4;
  const std::vector<SweepPoint> sweep = run_noc_sweep(cfg);
  const std::vector<SweepScenario> grid = cfg.scenarios();
  ASSERT_EQ(grid.size(), sweep.size());
  // O(1) replay: any scenario — including its fault plan — reproduces
  // without simulating the grid before it.
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(sweep_point_diff(
                  run_noc_scenario(grid[static_cast<std::size_t>(i)], cfg,
                                   static_cast<int>(i)),
                  sweep[i]),
              "")
        << "scenario " << i << " failed to replay";
}

TEST(FaultSweepTest, SaturatedFlakyMeshDrainsAndConserves) {
  // The degraded 8x8 scenarios of the noc_load benchmark, replayed at their
  // own grid indices: 0.3 flits/node/cycle, four flaky links, retry budget
  // 4, no warm-up. Flaky links change the west-first routes while packets
  // are in flight, so a body flit can reach a FIFO front after its route
  // changed. Only head flits may request an output; a body flit that did
  // could take a second grant and wedge the mesh (the transpose scenario
  // then fails to drain in 2,000,000 cycles).
  SweepConfig cfg;
  cfg.patterns = {TrafficPattern::kHotspot, TrafficPattern::kTranspose,
                  TrafficPattern::kUniformRandom};
  cfg.mesh_sides = {8, 4};
  cfg.injection_rates = {0.3, 0.1};
  cfg.fault_counts = {0, 4};
  cfg.fault_kinds = {FaultKind::kLinkFlaky};
  cfg.retry_budgets = {4};
  cfg.warmup_cycles = 0;
  cfg.seed = 1;
  const std::vector<SweepScenario> grid = cfg.scenarios();
  int replayed = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SweepScenario& sc = grid[i];
    if (sc.dim.width != 8 || sc.injection_rate != 0.3 || sc.fault_count == 0)
      continue;
    SCOPED_TRACE("scenario " + std::to_string(i));
    SweepPoint p;
    ASSERT_NO_THROW(p = run_noc_scenario(sc, cfg, static_cast<int>(i)));
    EXPECT_GT(p.route_epochs, 0);
    EXPECT_EQ(p.packets_delivered + p.packets_dropped + p.packets_unreachable,
              p.messages_sent);
    ++replayed;
  }
  EXPECT_EQ(replayed, 3);
}

TEST(FaultSweepTest, DefaultAxesKeepTheLegacyGrid) {
  // A config that never mentions faults must enumerate the exact grid the
  // pre-fault harness did: same size, same order, pristine scenarios.
  SweepConfig cfg;
  cfg.patterns = {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose};
  cfg.mesh_sides = {4};
  cfg.injection_rates = {0.05, 0.1};
  const std::vector<SweepScenario> grid = cfg.scenarios();
  ASSERT_EQ(grid.size(), 4u);
  for (const SweepScenario& sc : grid) {
    EXPECT_EQ(sc.fault_count, 0);
    EXPECT_EQ(sc.retry_budget, kGuardDisabled);
  }
  EXPECT_EQ(grid[0].pattern, TrafficPattern::kUniformRandom);
  EXPECT_EQ(grid[0].injection_rate, 0.05);
  EXPECT_EQ(grid[1].injection_rate, 0.1);
  EXPECT_EQ(grid[2].pattern, TrafficPattern::kTranspose);
}

TEST(FaultSweepTest, ValidateRejectsOversubscribedFaultAxis) {
  SweepConfig cfg = fault_sweep_config();
  cfg.fault_kinds = {FaultKind::kLinkDead};
  cfg.fault_counts = {0, 100};  // more links than a 4x4 mesh's 48
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.fault_counts = {0, 2};
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace renoc
