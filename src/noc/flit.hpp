// Flit and message types for the wormhole NoC.
//
// A message (arbitrary 64-bit payload words + a tag) is carried by exactly
// one wormhole packet: a Head flit, zero or more Body flits, and a Tail
// flit; a single-word message uses a combined HeadTail flit. The head flit
// carries the destination used by the routers; payload words ride one per
// flit (64-bit physical channel, as in the ISVLSI'05 LDPC NoC).
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace renoc {

/// Globally unique packet identifier (assigned by the fabric at injection).
using PacketId = std::uint64_t;

enum class FlitType : std::uint8_t { kHead, kBody, kTail, kHeadTail };

/// One flow-control unit.
struct Flit {
  FlitType type = FlitType::kHead;
  PacketId packet = 0;
  int src = 0;           ///< source node index
  int dst = 0;           ///< destination node index
  std::uint32_t seq = 0;  ///< position within the packet (0 = head)
  std::uint64_t payload = 0;
  std::uint64_t tag = 0;  ///< message tag, replicated from the message
  Cycle injected_at = 0;  ///< cycle the head entered the injection queue
  /// Total flits of the carrying packet, stamped at staging. Lets the
  /// receiver reserve the full payload on the head flit instead of growing
  /// one push_back per body flit (real NoC headers carry packet length for
  /// the same reason).
  std::uint32_t pkt_flits = 1;
  /// Per-source message sequence number, stamped at staging and identical
  /// across retransmissions of the same message (the PacketId is fresh per
  /// attempt). Reassembly suppresses duplicates by (src, msg_seq) when the
  /// delivery guard is active; the reference engine ignores the field.
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

/// Application-level message exchanged between PEs through the NoC.
struct Message {
  int src = 0;
  int dst = 0;
  std::uint64_t tag = 0;             ///< application-defined discriminator
  std::vector<std::uint64_t> payload;  ///< 64-bit words; may be empty

  /// Number of flits the message occupies on the wire (>= 1; the head flit
  /// carries the first payload word if any).
  int flit_count() const {
    return payload.empty() ? 1 : static_cast<int>(payload.size());
  }
};

}  // namespace renoc
