// Parameterized property sweeps for the NoC fabric across mesh shapes,
// including non-square meshes the main experiments never exercise. These
// are the "would a downstream user trust this simulator" invariants:
// universal delivery, conservation, deterministic replay, and latency
// bounds, checked on every shape.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/phase_scheduler.hpp"
#include "core/transform.hpp"
#include "noc/fabric.hpp"
#include "noc/fault_model.hpp"
#include "noc/traffic.hpp"
#include "support/helpers.hpp"
#include "util/rng.hpp"

namespace renoc {
namespace {

class MeshSweep : public ::testing::TestWithParam<GridDim> {
 protected:
  NocConfig config() const {
    NocConfig cfg;
    cfg.dim = GetParam();
    return cfg;
  }
};

TEST_P(MeshSweep, AllPairsDeliverWithCorrectPayload) {
  Fabric fabric(config());
  const int n = fabric.node_count();
  int sent = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      Message m;
      m.src = s;
      m.dst = d;
      m.tag = static_cast<std::uint64_t>(s) << 16 |
              static_cast<std::uint64_t>(d);
      m.payload = {static_cast<std::uint64_t>(s * 1000 + d)};
      fabric.send(m);
      ++sent;
    }
  }
  fabric.drain(2'000'000);
  int received = 0;
  for (int d = 0; d < n; ++d) {
    while (auto got = fabric.try_receive(d)) {
      EXPECT_EQ(got->dst, d);
      EXPECT_EQ(got->payload[0],
                static_cast<std::uint64_t>(got->src * 1000 + d));
      ++received;
    }
  }
  EXPECT_EQ(received, sent);
}

TEST_P(MeshSweep, RandomTrafficConservesFlits) {
  Fabric fabric(config());
  Rng rng(GetParam().width * 100 + GetParam().height);
  const int n = fabric.node_count();
  std::uint64_t flits = 0;
  for (int i = 0; i < 300; ++i) {
    Message m;
    m.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    m.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (m.src == m.dst) continue;
    m.payload.resize(1 + rng.next_below(9));
    flits += static_cast<std::uint64_t>(m.flit_count());
    fabric.send(m);
  }
  fabric.drain(2'000'000);
  const TileActivity total = fabric.stats().total();
  EXPECT_EQ(total.injected_flits, flits);
  EXPECT_EQ(total.ejected_flits, flits);
  EXPECT_EQ(total.buffer_reads, total.buffer_writes);
  EXPECT_TRUE(fabric.idle());
}

TEST_P(MeshSweep, ZeroLoadLatencyIsHopsPlusSerialization) {
  // A single flit packet on an empty mesh: latency must sit within a
  // small constant of the Manhattan distance.
  Fabric fabric(config());
  const GridDim dim = GetParam();
  const int src = 0;
  const int dst = dim.node_count() - 1;
  const int hops = manhattan(index_to_coord(src, dim),
                             index_to_coord(dst, dim));
  Message m;
  m.src = src;
  m.dst = dst;
  m.payload = {7};
  fabric.send(m);
  int cycles = 0;
  while (!fabric.try_receive(dst).has_value()) {
    fabric.step();
    ASSERT_LT(++cycles, 1000);
  }
  EXPECT_GE(cycles, hops + 2);
  EXPECT_LE(cycles, hops + 6);
}

TEST_P(MeshSweep, ReplayIsCycleExact) {
  auto run = [this] {
    Fabric fabric(config());
    TrafficGenerator gen(fabric, TrafficPattern::kUniformRandom, 0.15, 3,
                         Rng(99));
    gen.run(1500);
    const int cycles = fabric.drain(2'000'000);
    return std::tuple{cycles, fabric.stats().total().link_flits,
                      fabric.stats().packet_latency().mean()};
  };
  EXPECT_EQ(run(), run());
}

TEST_P(MeshSweep, ShiftMigrationSchedulesOnAnyShape) {
  // Translations are closed on any WxH mesh; the phase scheduler must
  // produce disjoint full-coverage phases there too.
  const GridDim dim = GetParam();
  const Transform t{TransformKind::kShiftX, 1};
  const auto perm = t.permutation(dim);
  std::vector<MigrationMove> moves;
  for (int i = 0; i < dim.node_count(); ++i)
    moves.push_back({i, perm[static_cast<std::size_t>(i)], 16});
  const auto phases = schedule_phases(moves, dim);
  int scheduled = 0;
  for (const auto& phase : phases) {
    EXPECT_TRUE(phase_is_link_disjoint(phase, dim));
    scheduled += static_cast<int>(phase.moves.size());
  }
  EXPECT_EQ(scheduled, dim.node_count());  // shift has no fixed points
}

TEST_P(MeshSweep, DegradedDeliveryAccountingIsConserved) {
  // The degraded-fabric conservation law: once the fabric drains, every
  // message send() accepted has resolved as exactly one of delivered /
  // dropped / unreachable — a packet lost to a fault without a record is
  // a bug, on every mesh shape and every fault kind.
  const GridDim dim = GetParam();
  Fabric fabric(config());
  DeliveryGuardConfig guard;
  guard.timeout_cycles = 128;
  guard.ack_latency_cycles = 16;
  guard.retry_budget = 2;
  fabric.configure_delivery_guard(guard);
  FaultSpec spec;
  spec.kind =
      dim.width % 2 == 0 ? FaultKind::kLinkDead : FaultKind::kLinkFlaky;
  spec.count = 2;
  spec.onset_min = 50;
  spec.onset_max = 600;
  spec.validate(dim);
  fabric.install_fault_plan(make_fault_plan(
      dim, spec, fault_scenario_rng(21, dim.width * 97 + dim.height)));

  Rng rng(0x5eedULL + static_cast<std::uint64_t>(dim.node_count()));
  const int n = fabric.node_count();
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  auto collect = [&] {
    for (int node = 0; node < n; ++node)
      while (auto got = fabric.try_receive(node)) {
        ++received;
        fabric.recycle(std::move(*got));
      }
  };
  for (int cycle = 0; cycle < 900; ++cycle) {
    if (cycle % 3 == 0) {
      const int src = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      int dst = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (dst >= src) ++dst;
      Message m = fabric.acquire_message();
      m.src = src;
      m.dst = dst;
      m.payload.assign(4, static_cast<std::uint64_t>(cycle));
      fabric.send(std::move(m));
      ++sent;
    }
    fabric.step();
    collect();
  }
  fabric.drain(2'000'000);
  collect();

  const NetworkStats& st = fabric.stats();
  EXPECT_EQ(st.packets_delivered() + st.packets_dropped() +
                st.packets_unreachable(),
            sent)
      << "a packet was lost without a drop/unreachable record";
  EXPECT_EQ(st.packets_delivered(), received)
      << "delivered counter disagrees with messages handed to receivers";
  EXPECT_TRUE(fabric.idle());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshSweep,
    ::testing::Values(GridDim{2, 2}, GridDim{3, 3}, GridDim{4, 4},
                      GridDim{5, 5}, GridDim{3, 5}, GridDim{5, 3},
                      GridDim{6, 4}, GridDim{8, 8}),
    [](const ::testing::TestParamInfo<GridDim>& param_info) {
      return std::to_string(param_info.param.width) + "x" +
             std::to_string(param_info.param.height);
    });

// Buffer-depth sweep: the credit protocol must hold at any depth.
class BufferSweep : public ::testing::TestWithParam<int> {};

TEST_P(BufferSweep, CreditProtocolHoldsAtAnyDepth) {
  NocConfig cfg;
  cfg.dim = GridDim{4, 4};
  cfg.buffer_depth = GetParam();
  Fabric fabric(cfg);
  // Hotspot traffic maximizes contention and credit churn.
  for (int round = 0; round < 6; ++round) {
    for (int s = 1; s < 16; ++s) {
      Message m;
      m.src = s;
      m.dst = 0;
      m.payload.resize(6);
      fabric.send(m);
    }
  }
  // Any credit violation fires the FIFO-overflow check inside Router.
  EXPECT_NO_THROW(fabric.drain(1'000'000));
  int received = 0;
  while (fabric.try_receive(0)) ++received;
  EXPECT_EQ(received, 90);
}

INSTANTIATE_TEST_SUITE_P(Depths, BufferSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace renoc
