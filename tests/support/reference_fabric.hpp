// Seed-era NoC fabric, preserved verbatim as the semantics oracle.
//
// This is the original deque-and-map implementation of the cycle-accurate
// simulator (per-port std::deque FIFOs inside Router, an unordered_map for
// packet reassembly, per-Router wormhole/credit/round-robin state). The
// flat structure-of-arrays engine in noc/fabric.{hpp,cpp} replaced it on
// the hot path; this copy exists so every optimization of the fast engine
// can be checked bit-for-bit against the known-good loops:
//
//   - same cycle counts for any driving sequence,
//   - same per-node delivery order and message contents,
//   - same NocStats down to every TileActivity counter and the
//     packet-latency accumulator.
//
// tests/noc_flat_test.cpp drives both engines with identical send
// schedules and fails on any divergence. Do not "improve" this file: its
// value is that it does not change. (Same policy as the other oracles in
// tests/support: reference_decoder, reference_runtime and the dense LU.)
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "floorplan/grid.hpp"
#include "noc/fabric.hpp"
#include "noc/flit.hpp"
#include "noc/routing.hpp"
#include "noc/stats.hpp"
#include "util/units.hpp"

namespace renoc {

/// One flow-control unit of the oracle: every field travels with every
/// flit, hop by hop. (The fast Fabric moves 8-byte handles to a per-packet
/// store instead.)
struct Flit {
  FlitType type = FlitType::kHead;
  PacketId packet = 0;
  int src = 0;           ///< source node index
  int dst = 0;           ///< destination node index
  std::uint32_t seq = 0;  ///< position within the packet (0 = head)
  std::uint64_t payload = 0;
  std::uint64_t tag = 0;  ///< message tag, replicated from the message
  Cycle injected_at = 0;  ///< cycle the head entered the injection queue
  /// Total flits of the carrying packet; the oracle leaves it unset.
  std::uint32_t pkt_flits = 1;
  /// Per-source message sequence number; the oracle leaves it unset.
  std::uint32_t msg_seq = 0;

  bool is_head() const {
    return type == FlitType::kHead || type == FlitType::kHeadTail;
  }
  bool is_tail() const {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
};
// One cache line per flit: a 56-byte repack measured slower (flits then
// straddle cache lines).
static_assert(sizeof(Flit) == 64);

// Input-buffered wormhole router, one per mesh tile of the oracle:
//   * five input FIFOs (north/south/east/west/local), `buffer_depth` flits
//   * XY routing computed on the head flit at the FIFO head
//   * per-output wormhole ownership: a head flit that wins an output port
//     holds it until its tail flit passes (packets never interleave)
//   * round-robin arbitration among competing head flits per output
//   * credit-based flow control toward downstream FIFOs (managed by the
//     ReferenceFabric, which owns the credit counters for all directed
//     links)
//
// The router itself is deliberately passive: it *plans* at most one flit
// move per output port from a consistent pre-cycle snapshot, and the
// fabric commits all planned moves afterwards. This two-phase split is
// what makes the simulation order-independent and cycle-accurate. The
// production Fabric inlines the identical arbitration loop over flat
// per-fabric arrays and shares only PlannedMove (noc/fabric.hpp) with it.
class Router {
 public:
  Router(int node, const GridDim& dim, int buffer_depth);

  int node() const { return node_; }
  const GridCoord& coord() const { return coord_; }

  /// Free slots in the input FIFO for `port`.
  int fifo_space(int port) const;
  bool fifo_empty(int port) const;
  int fifo_occupancy(int port) const;

  /// Appends a flit to an input FIFO. Checked against capacity — credit
  /// flow control upstream must make overflow impossible.
  void push(int port, const Flit& flit);

  /// Pops the head flit of an input FIFO (must be non-empty).
  Flit pop(int port);

  /// Plans this cycle's moves given per-output credit availability
  /// (credit_ok[d] true if the downstream FIFO in direction d can accept a
  /// flit; the local/ejection port is always available). Appends to `out`.
  /// Returns the number of new output-port allocations (arbitration events).
  int arbitrate(const bool credit_ok[kDirectionCount],
                std::vector<PlannedMove>& out);

  /// Marks the wormhole ownership of `out_port` released (tail committed).
  void release_output(Direction out_port);

  /// True if every FIFO is empty and no output is owned.
  bool quiescent() const;

  /// Total flits buffered in all input FIFOs.
  int buffered_flits() const;

 private:
  int node_;
  GridDim dim_;
  GridCoord coord_;
  int buffer_depth_;
  std::deque<Flit> fifo_[kDirectionCount];
  int owner_input_[kDirectionCount];       // -1 = free
  PacketId owner_packet_[kDirectionCount];
  int rr_pointer_[kDirectionCount];
};

/// Drop-in oracle with the same public surface as the fast Fabric.
class ReferenceFabric {
 public:
  explicit ReferenceFabric(const NocConfig& config);

  const NocConfig& config() const { return config_; }
  int node_count() const { return config_.dim.node_count(); }
  Cycle now() const { return now_; }
  double seconds(Cycle cycles) const {
    return static_cast<double>(cycles) / config_.clock_hz;
  }

  /// Enqueues a message at its source NI. The message must have valid src
  /// and dst node indices. Injection order per source is FIFO.
  void send(const Message& msg);

  /// Pops the next fully-reassembled message delivered to `node`, if any.
  std::optional<Message> try_receive(int node);

  /// Number of delivered-but-unread messages at `node`.
  int delivered_count(int node) const;

  /// Advances the clock by one cycle.
  void step();
  /// Advances `n` cycles.
  void run(int n);

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

 private:
  /// Per-node network interface state.
  struct NetworkInterface {
    bool enabled = true;
    std::deque<Message> send_queue;
    // Serializer state for the message currently being injected.
    std::vector<Flit> staged_flits;
    std::size_t staged_pos = 0;
    std::deque<Message> delivered;
    // Reassembly of incoming packets by packet id.
    struct Partial {
      Message msg;
      Cycle head_injected_at = 0;
      int flits = 0;
    };
    std::unordered_map<PacketId, Partial> partial;
  };

  void stage_next_message(int node);
  void inject_phase();
  void eject_flit(int node, const Flit& flit);

  NocConfig config_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 1;
  std::vector<Router> routers_;
  std::vector<NetworkInterface> nis_;
  // credits_[node][dir]: free downstream slots for the output `dir` of
  // `node` (mesh directions only; ejection is always available).
  std::vector<std::array<int, 4>> credits_;
  NetworkStats stats_;
  std::vector<PlannedMove> planned_;  // scratch, reused across cycles
};

}  // namespace renoc
