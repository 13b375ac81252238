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
// simulator idealizations.
//
// --- Flat engine memory layout ---------------------------------------------
//
// One LDPC block costs ~55k fabric cycles and the DTM studies step the mesh
// millions of times, so step() is a first-class hot loop. The seed
// implementation (preserved in tests/support as the ReferenceFabric
// bit-exactness oracle) kept a Router object per tile with five std::deque
// FIFOs of 64-byte flits and reassembled packets through an unordered_map;
// this engine keeps the identical cycle semantics but lays every piece of
// per-cycle state out as flat per-fabric arrays, and a flit in a FIFO is an
// 8-byte handle to its packet. With N = node_count, P = kDirectionCount
// (5), D = buffer_depth, and f = node * P + port:
//
//   arena_         FlitHandle[N*P*D]  all input FIFOs, carved from one
//                                buffer; FIFO f is the fixed-capacity ring
//                                arena_[f*D .. f*D+D-1]. A handle is
//                                {packet-store slot, destination, FlitType}
//   fifo_head_/fifo_size_ [N*P]  ring cursors for each FIFO
//   req_out_       uint8[N*P]    output the FIFO's front requests: its
//                                route if the front is a head flit, else
//                                kNoRequest; set whenever the front changes
//                                and recomputed for every FIFO after a
//                                route epoch
//   credits_       int[N*4+1]    free downstream slots per mesh output,
//                                plus a spare no output reads
//   credit_return_ int[N*P]      credits_ index a pop from FIFO f returns
//                                to (the spare for local and edge inputs)
//   granted_       uint8[N]      per router: bit o set while output o is
//                                held by a wormhole grant
//   owner_input_   int8[N*P]     input holding output o's grant, and
//   owner_packet_  uint32[N*P]   its packet-store slot (both read only
//                                while the granted_ bit is set)
//   rr_pointer_    int8[N*P]     round-robin arbitration cursor
//   neighbor_node_ int[N*4]      downstream node per mesh output (-1 edge)
//   route_table_   uint8[N*N]    XY output port for (here, dst), computed
//                                once instead of per-flit coordinate math
//   busy_          bits[N]       routers holding a buffered flit; phase 1
//                                visits just these, in ascending order, and
//                                in each only the outputs with downstream
//                                room and an owner or a requesting head
//   packets_       PacketRecord[] one record per packet between staging and
//                                its last flit leaving the fabric: PacketId,
//                                source, tag, staging cycle, msg_seq and the
//                                payload, which is moved in from the sent
//                                Message and out to the delivered one, never
//                                copied per flit. Freed slots are reused
//                                from free_packets_; both are reserved for
//                                the worst case (N*P*D buffered flits plus
//                                one staged packet per NI) at construction
//   ni_work_       bits[N]       pristine only: NIs holding a queued or
//                                staged message (uint64 words); phase 3
//                                visits just these
//
// An NI injects its current packet one flit per cycle; each flit's handle
// is made from the packet's slot and its position when it is injected.
//
// Two-phase plan/commit is unchanged: arbitration appends PlannedMoves to a
// reused scratch vector from the pre-cycle snapshot, then the commit loop
// applies them; no intra-cycle ordering can leak. All per-cycle scratch
// (planned moves, packet records, delivered rings) is reused across
// cycles, and message payload buffers circulate through an internal
// recycling pool (see recycle()/acquire_message()), so step() performs
// zero heap allocations once the workload reaches steady state —
// tests/alloc_guard_test.cpp pins this, and tests/noc_flat_test.cpp pins
// the bit-exactness against the reference.
// --- Period replay ----------------------------------------------------------
//
// A workload whose traffic repeats (the LDPC decoder, one iteration after
// another) can skip the repeats with mark() and repeat(). An idle pristine
// fabric holds no flit, grant, queued message or borrowed credit: only its
// round-robin pointers still decide what it does next. (The spare credit
// counter that absorbs local and edge returns only counts up, and nothing
// reads it.) mark() records those pointers with the clock, the PacketId
// and per-NI message counters and every tile's activity counters, and
// from the first mark on the fabric logs each delivery's flits and
// latency. If the fabric is back in that idle state later, with the same
// pointers, and the workload has returned to the state it held at the
// mark, the stretch since the mark repeats exactly; repeat(mark, k) then
// applies k more copies of it: now() and both id counters advance by k
// times their change, each activity counter gains k times its change, and
// the logged deliveries are replayed k times in order into NetworkStats,
// so the latency accumulator keeps the bits stepping would give it.
// repeat() and release_marks() drop every mark and the log.
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
//   - Fault events (noc/fault_model.hpp) kill or restore mesh links at the
//     start of their cycle; each change bumps the route epoch, rebuilds
//     the adaptive west-first tables (noc/routing.hpp) outside the hot
//     regions, and purges packets the change strands (wormhole grants
//     crossing dead links, heads whose destination became unreachable).
//     Purged packets are never silently lost: their source tracker
//     retransmits or accounts them dropped/unreachable.
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
#include "noc/routing.hpp"
#include "noc/stats.hpp"

namespace renoc {

/// A flit transfer decided during arbitration, committed after it.
struct PlannedMove {
  int node = 0;        ///< router making the move
  int in_port = 0;     ///< source input FIFO (Direction as int)
  Direction out = Direction::kLocal;
};

/// Largest mesh a Fabric simulates: a FIFO entry names its destination in
/// 16 bits.
inline constexpr std::int64_t kMaxFabricNodes = std::int64_t{1} << 16;

/// Static fabric parameters.
struct NocConfig {
  GridDim dim{4, 4};
  int buffer_depth = 4;      ///< input FIFO depth, flits
  double clock_hz = 500e6;   ///< used to convert cycles to seconds

  /// Checks the mesh is at least 2x2 and at most kMaxFabricNodes nodes
  /// (counted in 64 bits, before anything sizes a table from it).
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

  NetworkStats& stats() { return stats_; }
  const NetworkStats& stats() const { return stats_; }

  // --- Period replay (see the header comment block) -----------------------

  /// Marks the current state for repeat() and returns the mark's index,
  /// or -1 unless the fabric is pristine and idle(), with no unread
  /// delivery and injection enabled at every node.
  int mark();
  /// Applies the stretch since mark `m` `times` more times, as the
  /// times * (now() - mark's now()) step() calls that would repeat it.
  /// The caller vouches that its workload is back in the state it held at
  /// the mark; the fabric checks its own side. Returns false, changing
  /// nothing, unless the fabric could be marked now and its round-robin
  /// pointers equal the mark's; otherwise it drops every mark.
  bool repeat(int m, std::uint64_t times);
  /// Drops every mark and the delivery log.
  void release_marks();

  // --- Degraded-fabric mode (see the header comment block) ---------------

  /// Installs a fault plan (events must be the sorted output of
  /// make_fault_plan) and enters degraded mode. The fabric must be idle.
  /// Events whose cycle has already passed apply on the next step().
  void install_fault_plan(const FaultPlan& plan);

  /// Sets the delivery-guarantee parameters and enters degraded mode.
  /// Installing a fault plan without calling this uses the defaults.
  void configure_delivery_guard(const DeliveryGuardConfig& cfg);

  /// Topology-change epoch counter: bumps once per applied fault-event
  /// batch; the adaptive tables are rebuilt exactly once per epoch.
  int route_epoch() const { return route_epoch_; }
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
    /// Appends a slot for the caller to fill in place.
    Message& push_slot() {
      if (count == buf.size()) grow();
      std::size_t slot = head + count;
      if (slot >= buf.size()) slot -= buf.size();
      ++count;
      return buf[slot];
    }
    void push(Message&& m) { push_slot() = std::move(m); }
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
  /// req_out_ value of a FIFO whose front requests no output: empty, a
  /// body or tail flit, or a head with no route.
  static constexpr std::uint8_t kNoRequest = kUnreachableRoute;

  /// One input-FIFO entry.
  struct FlitHandle {
    std::uint32_t packet;  ///< packets_ slot
    std::uint16_t dst;     ///< destination node
    FlitType type;
  };
  static_assert(sizeof(FlitHandle) == 8);

  /// A packet from staging until its last flit is ejected or purged.
  struct PacketRecord {
    /// Moved in from the sent Message at staging, out to the delivered one
    /// at the tail.
    std::vector<std::uint64_t> payload;
    PacketId pid = 0;                    ///< 0 while the slot is free
    std::uint64_t tag = 0;
    Cycle staged_at = 0;  ///< latency origin
    int src = 0;
    int dst = 0;
    /// Per-source message sequence number, identical across
    /// retransmissions of one message (the PacketId is fresh per attempt).
    /// Reassembly suppresses duplicates by (src, msg_seq) when the delivery
    /// guard is active.
    std::uint32_t msg_seq = 0;
    bool reassembling = false;  ///< head ejected, tail not yet
    bool discarding = false;    ///< head ejected as a suppressed duplicate
    bool doomed = false;        ///< marked by the purge in progress
  };

  /// Per-node network interface state.
  struct NetworkInterface {
    bool enabled = true;
    MessageRing send_queue;
    // The packet being injected: flits next_flit..flits-1 of packets_
    // slot `packet` are still staged.
    std::uint32_t packet = 0;
    int flits = 0;
    int next_flit = 0;
    MessageRing delivered;

    bool staging() const { return next_flit < flits; }

    // Delivery-guard state, live only in degraded mode: the one tracked
    // outstanding message (stop-and-wait per source — delivery guarantees
    // are bought with throughput on a degraded fabric). The message copy
    // is retained until resolution so timeouts can retransmit it.
    Message tracked_msg;
    PacketId tracked_pid = 0;
    std::uint32_t tracked_slot = 0;     ///< packets_ slot of tracked_pid
    std::uint32_t tracked_seq = 0;      ///< msg_seq, stable across attempts
    int tracked_attempts = 0;           ///< retransmissions issued so far
    Cycle tracked_deadline = 0;
    Cycle tracked_ack_at = kNoAck;      ///< cycle the delivery notice lands
    int tracked_flits_in_net = 0;       ///< current attempt's buffered flits
    bool tracked_active = false;
    std::uint32_t next_msg_seq = 0;     ///< per-source sequence counter
  };

  std::size_t port_index(int node, int port) const {
    return static_cast<std::size_t>(node) * kDirectionCount +
           static_cast<std::size_t>(port);
  }
  const FlitHandle& fifo_front(std::size_t f) const {
    return arena_[f * static_cast<std::size_t>(depth_) +
                  static_cast<std::size_t>(fifo_head_[f])];
  }
  /// The req_out_ value for FIFO f (at `node`) with `front` at its front.
  std::uint8_t request_of(int node, std::size_t f, FlitHandle front) const;
  void push_flit(int node, int port, FlitHandle flit);
  void pop_front(int node, std::size_t f);

  std::uint32_t open_packet(const Message& msg, std::uint32_t msg_seq);
  void free_packet(std::uint32_t slot);
  void stage_next_message(int node);
  void start_injection(NetworkInterface& ni, std::uint32_t slot);
  void inject_phase(TileActivity* tiles);
  bool inject_flit(int node, NetworkInterface& ni, TileActivity* tiles);
  void eject_flit(int node, FlitHandle flit, TileActivity* tiles);
  void recycle_payload(std::vector<std::uint64_t>& payload);
  /// The fabric state mark() accepts (see its comment).
  bool markable() const;

  // Degraded-mode machinery (all cold paths; nothing here is reached when
  // degraded_ is false).
  void enter_degraded_mode();
  void apply_due_faults();
  void purge_stranded_packets();
  void doom(std::uint32_t slot);
  void note_flit_left_network(const PacketRecord& packet);
  void guard_tick(int node, NetworkInterface& ni);
  void admit_next_message(int node, NetworkInterface& ni);
  void restage_tracked(NetworkInterface& ni);
  void resolve_tracked(NetworkInterface& ni);

  NocConfig config_;
  int depth_ = 0;  ///< config_.buffer_depth, hoisted for the ring math
  std::size_t nodes_ = 0;  ///< node_count(), hoisted for table indexing
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;

  // Flat per-fabric router state (layout documented in the header comment).
  std::vector<FlitHandle> arena_;
  std::vector<int> fifo_head_;
  std::vector<int> fifo_size_;
  std::vector<std::uint8_t> req_out_;
  std::vector<int> credits_;
  std::vector<int> credit_return_;  ///< per FIFO: credits_ index upstream
  std::vector<std::int8_t> owner_input_;
  std::vector<std::uint32_t> owner_packet_;
  std::vector<std::uint8_t> granted_;  ///< per node: bit o = output o held
  std::vector<std::int8_t> rr_pointer_;
  std::vector<int> neighbor_node_;
  std::vector<std::uint8_t> route_table_;
  std::vector<int> node_buffered_;  ///< flits buffered per node
  std::vector<std::uint64_t> busy_;  ///< bit n set iff node_buffered_[n] > 0
  int partial_count_ = 0;           ///< packets mid-reassembly, all nodes
  int unread_ = 0;                  ///< delivered messages not yet received

  std::vector<NetworkInterface> nis_;
  /// Pristine mode only: bit n set iff NI n holds a queued or partially
  /// injected message. inject_phase visits just these NIs and idle() reads
  /// the words instead of every NI. Degraded mode walks every NI (its
  /// guard timers tick each cycle) and never reads or clears the set.
  std::vector<std::uint64_t> ni_work_;
  std::vector<PacketRecord> packets_;
  std::vector<std::uint32_t> free_packets_;
  std::vector<std::vector<std::uint64_t>> payload_pool_;
  NetworkStats stats_;
  std::vector<PlannedMove> planned_;  // scratch, reserved once

  // Period replay state, held from mark() to repeat() or release_marks().
  struct MarkRecord {
    Cycle now = 0;
    PacketId next_packet_id = 0;
    std::size_t deliveries = 0;  ///< delivery_log_ length at the mark
  };
  struct Delivery {
    Cycle latency = 0;
    int flits = 0;
  };
  std::vector<MarkRecord> marks_;
  std::vector<TileActivity> mark_tiles_;     ///< node_count() per mark
  std::vector<std::uint32_t> mark_msg_seq_;  ///< node_count() per mark
  std::vector<std::int8_t> mark_rr_;         ///< rr_pointer_ per mark
  std::vector<Delivery> delivery_log_;       ///< kept while marks_ is held
  bool log_deliveries_ = false;              ///< !marks_.empty()

  // Degraded-fabric state (untouched while degraded_ is false).
  bool degraded_ = false;
  bool adaptive_active_ = false;  ///< first event flipped routing off XY
  int route_epoch_ = 0;
  DeliveryGuardConfig guard_;
  std::vector<FaultEvent> fault_events_;  ///< sorted; consumed by cursor
  std::size_t next_fault_ = 0;
  std::vector<std::uint8_t> link_up_;  ///< [N*4], 0 = dead or mesh edge
  /// West-first next hops, [(node*kDirectionCount + in_port)*N + dst];
  /// rebuilt by build_adaptive_routes once per route epoch.
  std::vector<std::uint8_t> adaptive_table_;
  /// Highest msg_seq delivered per (dst, src) pair, [dst * N + src]: a
  /// head carrying msg_seq <= this is a retransmission duplicate.
  std::vector<std::uint32_t> last_seq_delivered_;
  std::vector<std::uint32_t> doomed_;  ///< purge scratch: slots to free
};

}  // namespace renoc
