// Golden (non-distributed) min-sum decoder.
//
// Flooding schedule with a fixed iteration count, matching the hardware:
// the NoC implementation runs a fixed number of iterations so every block
// takes the same time, which is what lets the paper align migration
// periods with block boundaries.
//
// The decode loops run the NoC decoder's edge kernels (ldpc/minsum.hpp)
// over LdpcCode's flat CSR slices: messages live in two global edge-id
// indexed arrays owned by the decoder and are updated in place, and each
// phase is one loop over the variable or check slices. The message arrays
// are a per-decoder workspace sized at construction, so repeated
// decode_into() calls allocate nothing after the first — the property the
// Monte-Carlo BER harness leans on. A decoder instance is consequently NOT
// shareable across threads; give each worker its own (construction is
// cheap: two edge-count arrays).
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"

namespace renoc {

struct DecodeResult {
  std::vector<std::uint8_t> hard_bits;
  bool syndrome_ok = false;
  int iterations_run = 0;  ///< MinSumDecoder always runs its full budget
};

class MinSumDecoder {
 public:
  /// Runs `iterations` full (VN+CN) iterations per block.
  MinSumDecoder(const LdpcCode& code, int iterations);

  /// Decodes quantized channel LLRs (size n).
  DecodeResult decode(const std::vector<std::int16_t>& channel_llrs) const;

  /// Allocation-free variant: writes into `result`, reusing its buffers.
  /// Steady state (same decoder, reused result) performs zero heap
  /// allocations per block.
  void decode_into(const std::vector<std::int16_t>& channel_llrs,
                   DecodeResult& result) const;

  int iterations() const { return iterations_; }

 private:
  const LdpcCode* code_;
  int iterations_;
  // Workspace: global edge-indexed message arrays, reused across calls
  // (mutable so decode() stays const like every other solver in the repo).
  mutable std::vector<std::int16_t> r_;
  mutable std::vector<std::int16_t> q_;
};

}  // namespace renoc
