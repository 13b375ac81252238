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
// tests/noc_flat_test.cpp and bench/micro_noc.cpp drive both engines with
// identical send schedules and fail on any divergence. Do not "improve"
// this file: its value is that it does not change. (Same policy as
// ldpc/reference_decoder and the dense LU test oracle in tests/support.)
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "floorplan/grid.hpp"
#include "noc/fabric.hpp"
#include "noc/flit.hpp"
#include "noc/router.hpp"
#include "noc/stats.hpp"

namespace renoc {

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
