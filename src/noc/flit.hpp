// Flit and message types for the wormhole NoC.
//
// A message (arbitrary 64-bit payload words + a tag) is carried by exactly
// one wormhole packet: a Head flit, zero or more Body flits, and a Tail
// flit; a single-word message uses a combined HeadTail flit. The head flit
// carries the destination used by the routers; payload words ride one per
// flit (64-bit physical channel, as in the ISVLSI'05 LDPC NoC). The fabric
// models that wire cycle by cycle but keeps each packet's words in one
// place (see noc/fabric.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace renoc {

/// Globally unique packet identifier (assigned by the fabric at injection).
using PacketId = std::uint64_t;

/// A flit's position in its packet as two bits: kHead marks the first
/// flit and kTail the last, so a one-flit packet is kHeadTail (both) and a
/// middle flit is kBody (neither).
enum class FlitType : std::uint8_t {
  kBody = 0,
  kHead = 1,
  kTail = 2,
  kHeadTail = 3,
};

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
