// Mesh fabric: routers + links + network interfaces, stepped cycle by cycle.
//
// The Fabric is the "modified cycle-accurate NoC simulator" of the DATE'05
// flow. Workload engines (the LDPC decoder, traffic generators, the
// migration controller) drive it in a simple loop:
//
//   fabric.send(msg);                  // enqueue at the source NI
//   fabric.step();                     // advance one clock
//   while (auto m = fabric.try_receive(node)) { ... }
//
// Cycle semantics (one step() call):
//   1. Arbitration: every router plans at most one flit move per output
//      port from the pre-cycle state (credits, FIFO heads).
//   2. Commit: planned flits pop from input FIFOs, traverse the crossbar,
//      and land in the downstream input FIFO (1-cycle link) or the local
//      ejection queue; credits update (1-cycle credit loop).
//   3. Injection: each enabled NI streams up to one flit of its current
//      packet into the router's local input FIFO.
//
// advance_idle(n) is n step() calls on an idle() fabric. Nothing moves in
// that window, so a pristine fabric only adds n to now(); a degraded one
// steps every cycle, so fault events and guard timers fire on their own
// cycles. run(n) takes the same shortcut once the fabric is idle.
//
// Every event increments the activity counters that feed the power model.
// Ejection is ideal (unbounded reassembly buffers); injection queues are
// unbounded but serialize at one flit per cycle. Both are standard
// simulator idealizations and are documented in DESIGN.md.
//
// --- Flat engine memory layout ---------------------------------------------
//
// One LDPC block costs ~55k fabric cycles and the DTM studies step the mesh
// millions of times, so step() is a first-class hot loop. The seed
// implementation (preserved in noc/reference_fabric.{hpp,cpp} as the
// bit-exactness oracle) kept a Router object per tile with five std::deque
// FIFOs and reassembled packets through an unordered_map; this engine keeps
// the identical cycle semantics but lays every piece of per-cycle state out
// as flat per-fabric arrays. With N = node_count, P = kDirectionCount (5),
// D = buffer_depth, and f = node * P + port:
//
//   arena_         Flit[N*P*D]   all input FIFOs, carved from one buffer;
//                                FIFO f is the fixed-capacity ring
//                                arena_[f*D .. f*D+D-1]
//   fifo_head_/fifo_size_ [N*P]  ring cursors for each FIFO
//   credits_       int[N*4]      free downstream slots per mesh output
//   owner_input_   int8[N*P]     wormhole grant: input that owns output
//                                (-1 = free)
//   owner_packet_  PacketId[N*P] packet holding the grant
//   rr_pointer_    int8[N*P]     round-robin arbitration cursor
//   neighbor_node_ int[N*4]      downstream node per mesh output (-1 edge)
//   route_table_   uint8[N*N]    XY output port for (here, dst), computed
//                                once instead of per-flit coordinate math
//   slots_         [N*N]         packet reassembly, one slot per (dst, src)
//                                pair — wormhole + XY + FIFO links ensure at
//                                most one packet per pair is ever in flight,
//                                replacing the seed's unordered_map
//   ni_work_       bits[N]       pristine only: NIs holding a queued or
//                                staged message (uint64 words); phase 3
//                                visits just these
//
// Two-phase plan/commit is unchanged: arbitration appends PlannedMoves to a
// reused scratch vector from the pre-cycle snapshot, then the commit loop
// applies them; no intra-cycle ordering can leak. All per-cycle scratch
// (planned moves, NI staging buffers, reassembly payloads, delivered rings)
// is reused across cycles, and message payload buffers circulate through an
// internal recycling pool (see recycle()/acquire_message()), so step()
// performs zero heap allocations once the workload reaches steady state —
// bench/micro_noc.cpp asserts this and the bit-exactness against the
// reference on every run.
// --- Degraded-fabric mode ---------------------------------------------------
//
// install_fault_plan() / configure_delivery_guard() switch the fabric into
// degraded mode. The zero-fault configuration stays bit-identical to the
// reference engine because every degraded-mode hook is gated behind a
// single `degraded_` flag: until one of those calls happens, step() runs
// the exact pre-fault code path (XY tables, pipelined NI staging, no
// timers).
//
// Degraded-mode semantics:
//   - Fault events (noc/fault_model.hpp) apply at the start of their
//     cycle; each change bumps the route epoch, rebuilds the adaptive
//     west-first tables (noc/routing.hpp) outside the hot regions, and
//     purges packets the change strands (flits in dead routers, wormhole
//     grants crossing dead links, heads whose destination became
//     unreachable). Purged packets are never silently lost: their source
//     tracker retransmits or accounts them dropped/unreachable.
//   - The NI layer runs stop-and-wait per source: one tracked message
//     outstanding, a per-packet timeout with deterministic exponential
//     backoff, bounded retransmissions (DeliveryGuardConfig::retry_budget),
//     and a modeled delivery-notice latency (ack_latency_cycles). A
//     retransmission that races its own delivery notice produces a
//     duplicate at the destination, suppressed at reassembly by
//     (src, msg_seq). Messages to unreachable destinations are refused and
//     reported, not spun on.
//   - Every message accepted by send() resolves as exactly one of
//     delivered / dropped / unreachable in NocStats once the fabric
//     drains (the conservation law noc_property_test checks).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "floorplan/grid.hpp"
#include "noc/fault_model.hpp"
#include "noc/flit.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace renoc {

/// Static fabric parameters.
struct NocConfig {
  GridDim dim{4, 4};
  int buffer_depth = 4;      ///< input FIFO depth, flits
  double clock_hz = 500e6;   ///< used to convert cycles to seconds

  void validate() const;
};

/// End-to-end delivery-guarantee parameters for degraded mode.
struct DeliveryGuardConfig {
  int retry_budget = 3;          ///< retransmissions allowed per message
  Cycle timeout_cycles = 512;    ///< base per-attempt timeout
  Cycle ack_latency_cycles = 32; ///< modeled delivery-notice delay
  int backoff_shift_cap = 4;     ///< timeout << min(attempts, cap)

  void validate() const;
};

class Fabric {
 public:
  explicit Fabric(const NocConfig& config);

  const NocConfig& config() const { return config_; }
  int node_count() const { return config_.dim.node_count(); }
  Cycle now() const { return now_; }
  double seconds(Cycle cycles) const {
    return static_cast<double>(cycles) / config_.clock_hz;
  }

  /// Enqueues a message at its source NI. The message must have valid src
  /// and dst node indices. Injection order per source is FIFO.
  void send(const Message& msg);
  /// Move overload: steals the payload buffer instead of copying it. Hot
  /// senders should pair this with acquire_message()/recycle() so payload
  /// buffers circulate instead of being reallocated per message.
  void send(Message&& msg);

  /// Pops the next fully-reassembled message delivered to `node`, if any.
  std::optional<Message> try_receive(int node);

  /// Returns a consumed message's payload buffer to the fabric's recycling
  /// pool. Optional — but consumers that recycle make the whole
  /// send→inject→eject→receive loop allocation-free in steady state.
  void recycle(Message&& msg);

  /// A fresh Message whose payload capacity comes from the recycling pool
  /// when one is available (fields zeroed, payload empty).
  Message acquire_message();

  /// Number of delivered-but-unread messages at `node`.
  int delivered_count(int node) const;
  /// Delivered-but-unread messages summed over every node.
  int unread_deliveries() const { return unread_; }

  /// Advances the clock by one cycle.
  void step();
  /// Advances `n` cycles.
  void run(int n);
  /// Advances `n` cycles of an idle() fabric (throws CheckError otherwise);
  /// every observable result equals n step() calls.
  void advance_idle(Cycle n);

  /// Runs until the network is completely idle (no buffered flits, no
  /// pending injections). Returns the number of cycles stepped. Throws if
  /// the network fails to drain within `max_cycles`.
  int drain(int max_cycles = 1'000'000);

  /// True if no flit is buffered or in flight and all NI queues are empty.
  bool idle() const;

  /// Enables/disables injection at a node (used to halt PEs during
  /// migration; delivery continues so in-flight packets can land).
  void set_injection_enabled(int node, bool enabled);
  bool injection_enabled(int node) const;

  /// Messages waiting (not yet fully injected) at a node's NI.
  int pending_send_count(int node) const;

  NetworkStats& stats() { return stats_; }
  const NetworkStats& stats() const { return stats_; }

  // --- Degraded-fabric mode (see the header comment block) ---------------

  /// Installs a fault plan (events must be the sorted output of
  /// make_fault_plan) and enters degraded mode. The fabric must be idle.
  /// Events whose cycle has already passed apply on the next step().
  void install_fault_plan(const FaultPlan& plan);

  /// Sets the delivery-guarantee parameters and enters degraded mode.
  /// Installing a fault plan without calling this uses the defaults.
  void configure_delivery_guard(const DeliveryGuardConfig& cfg);

  bool degraded() const { return degraded_; }
  /// Topology-change epoch counter: bumps once per applied fault-event
  /// batch; the adaptive tables are rebuilt exactly once per epoch.
  int route_epoch() const { return route_epoch_; }
  bool router_alive(int node) const;
  bool link_alive(int node, int dir) const;
  /// True if a fresh injection at `src` can reach `dst` under the current
  /// tables (always true outside degraded mode).
  bool destination_reachable(int src, int dst) const;

 private:
  /// Vector-backed message FIFO. Pops reuse slots and growth happens only
  /// at the high-water mark, so steady-state push/pop never touches the
  /// heap (std::deque churns chunk allocations at block seams even when
  /// its size is stationary).
  struct MessageRing {
    std::vector<Message> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    void push(Message&& m) {
      if (count == buf.size()) grow();
      std::size_t slot = head + count;
      if (slot >= buf.size()) slot -= buf.size();
      buf[slot] = std::move(m);
      ++count;
    }
    Message pop() {
      Message m = std::move(buf[head]);
      ++head;
      if (head == buf.size()) head = 0;
      --count;
      return m;
    }
    void grow();
  };

  /// Sentinel for "no delivery notice pending" in the tracked-send state.
  static constexpr Cycle kNoAck = ~Cycle{0};

  /// Per-node network interface state.
  struct NetworkInterface {
    bool enabled = true;
    MessageRing send_queue;
    // Serializer workspace for the message currently being injected
    // (cleared and refilled per message; capacity persists).
    std::vector<Flit> staged_flits;
    std::size_t staged_pos = 0;
    MessageRing delivered;

    // Delivery-guard state, live only in degraded mode: the one tracked
    // outstanding message (stop-and-wait per source — delivery guarantees
    // are bought with throughput on a degraded fabric). The message copy
    // is retained until resolution so timeouts can retransmit it.
    Message tracked_msg;
    PacketId tracked_pid = 0;
    std::uint32_t tracked_seq = 0;      ///< msg_seq, stable across attempts
    int tracked_attempts = 0;           ///< retransmissions issued so far
    Cycle tracked_deadline = 0;
    Cycle tracked_ack_at = kNoAck;      ///< cycle the delivery notice lands
    int tracked_flits_in_net = 0;       ///< current attempt's buffered flits
    bool tracked_active = false;
    std::uint32_t next_msg_seq = 0;     ///< per-source sequence counter
  };

  /// Reassembly state for the (dst, src) pair's in-flight packet.
  struct ReassemblySlot {
    Message msg;
    Cycle head_injected_at = 0;
    int flits = 0;  ///< 0 = no packet in progress
    PacketId pid = 0;  ///< packet being reassembled (purge bookkeeping)
    /// Highest msg_seq delivered from this src (degraded mode): a head
    /// carrying msg_seq <= this is a retransmission duplicate.
    std::uint32_t last_seq_delivered = 0;
    bool discarding = false;  ///< swallowing a suppressed duplicate
  };

  std::size_t port_index(int node, int port) const {
    return static_cast<std::size_t>(node) * kDirectionCount +
           static_cast<std::size_t>(port);
  }
  const Flit& fifo_front(std::size_t f) const {
    return arena_[f * static_cast<std::size_t>(depth_) +
                  static_cast<std::size_t>(fifo_head_[f])];
  }
  void refresh_head(std::size_t f) {
    const Flit& fl = fifo_front(f);
    head_packet_[f] = fl.packet;
    head_dst_[f] = fl.dst;
    head_is_head_[f] = fl.is_head() ? 1 : 0;
  }
  void push_flit(int node, int port, const Flit& flit);
  void pop_front(int node, std::size_t f);

  void stage_next_message(int node);
  void inject_phase();
  bool inject_staged_flit(int node, NetworkInterface& ni);
  void eject_flit(int node, const Flit& flit);

  // Degraded-mode machinery (all cold paths; nothing here is reached when
  // degraded_ is false).
  void enter_degraded_mode();
  void build_staged_flits(NetworkInterface& ni, const Message& msg,
                          PacketId pid, std::uint32_t msg_seq);
  void apply_due_faults();
  void purge_stranded_packets();
  void note_flit_left_network(const Flit& flit);
  void guard_tick(int node, NetworkInterface& ni);
  void admit_next_message(int node, NetworkInterface& ni);
  void restage_tracked(NetworkInterface& ni);
  void resolve_tracked(NetworkInterface& ni);

  NocConfig config_;
  int depth_ = 0;  ///< config_.buffer_depth, hoisted for the ring math
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;

  // Flat per-fabric router state (layout documented in the header comment).
  std::vector<Flit> arena_;
  std::vector<int> fifo_head_;
  // FIFO sizes and the head-flit metadata mirrors (refreshed whenever a
  // FIFO's front changes): the arbitration scan reads only these dense
  // arrays instead of striding 64-byte Flits out of the arena. They are
  // lane-aligned with zero-filled tails (AlignedVec) because the SIMD
  // want[]-prepass (noc/arb_kernels.hpp) reads them whole lane groups at
  // a time — a zeroed pad port has fifo_size 0 and scans as want -1.
  AlignedVec<int> fifo_size_;
  std::vector<PacketId> head_packet_;
  AlignedVec<int> head_dst_;
  AlignedVec<std::uint8_t> head_is_head_;
  std::vector<int> credits_;
  std::vector<std::int8_t> owner_input_;
  std::vector<PacketId> owner_packet_;
  std::vector<std::int8_t> rr_pointer_;
  std::vector<int> neighbor_node_;
  std::vector<std::uint8_t> route_table_;
  std::vector<int> node_buffered_;  ///< flits buffered per node (early-out)

  // SIMD arbitration prepass state. On a vector tier, step() computes the
  // whole fabric's want[] array in one kernel call over the mirrors; the
  // per-node loop then reads its five-entry slice. Null on the scalar
  // tier, where the inline per-node computation (identical semantics) is
  // already optimal. want_base_* hold the per-port route-table row offsets
  // for the two routing modes; both route tables carry kRouteTablePad
  // bytes of tail slack for the gather overread (see arb_kernels.hpp).
  static constexpr std::size_t kRouteTablePad = 4;
  const simd::KernelTable* want_kernels_ = nullptr;
  int ports_padded_ = 0;  ///< port count rounded up to a full lane group
  AlignedVec<int> want_scan_;
  AlignedVec<int> want_base_xy_;
  AlignedVec<int> want_base_adaptive_;
  int buffered_flits_ = 0;          ///< total flits in all FIFOs
  int partial_count_ = 0;           ///< active reassembly slots, all nodes
  int unread_ = 0;                  ///< delivered messages not yet received

  std::vector<NetworkInterface> nis_;
  /// Pristine mode only: bit n set iff NI n holds a queued or partially
  /// injected message. inject_phase visits just these NIs and idle() reads
  /// the words instead of every NI. Degraded mode walks every NI (its
  /// guard timers tick each cycle) and never reads or clears the set.
  std::vector<std::uint64_t> ni_work_;
  std::vector<ReassemblySlot> slots_;  ///< [dst * N + src]
  std::vector<std::vector<std::uint64_t>> payload_pool_;
  NetworkStats stats_;
  std::vector<PlannedMove> planned_;  // scratch, reserved once

  // Degraded-fabric state (untouched while degraded_ is false).
  bool degraded_ = false;
  bool adaptive_active_ = false;  ///< first event flipped routing off XY
  int route_epoch_ = 0;
  DeliveryGuardConfig guard_;
  std::vector<FaultEvent> fault_events_;  ///< sorted; consumed by cursor
  std::size_t next_fault_ = 0;
  std::vector<std::uint8_t> link_up_;    ///< [N*4], 0 = dead or mesh edge
  std::vector<std::uint8_t> router_up_;  ///< [N]
  /// West-first next hops, [(node*kDirectionCount + in_port)*N + dst];
  /// rebuilt by build_adaptive_routes once per route epoch.
  std::vector<std::uint8_t> adaptive_table_;
  std::vector<PacketId> doomed_;  ///< purge scratch, sorted + deduped
};

}  // namespace renoc
