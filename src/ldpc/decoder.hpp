// Golden (non-distributed) min-sum decoder.
//
// Flooding schedule with a fixed iteration count, matching the hardware:
// the NoC implementation runs a fixed number of iterations so every block
// takes the same time, which is what lets the paper align migration
// periods with block boundaries. Early termination on zero syndrome is
// available as an option for BER studies.
//
// The decode loops stream through LdpcCode's flat CSR arrays: messages
// live in two global edge arrays owned by the decoder, laid out var-major
// (variable v owns the contiguous slots [var_offsets[v], var_offsets[v+1]))
// and updated in place. The variable phase and the posterior hard decision
// are therefore pure sequential sweeps with no index loads at all; only the
// check phase gathers, through LdpcCode::check_var_slots(). Codes with
// uniform degrees (every regular Gallager code) additionally take
// fixed-stride loops whose inner kernels unroll completely. The message
// arrays are a per-decoder workspace sized at construction, so repeated
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
  int iterations_run = 0;
};

class MinSumDecoder {
 public:
  /// `iterations` full (VN+CN) iterations; if `early_exit`, stops when the
  /// syndrome becomes zero (checked after each CN phase).
  MinSumDecoder(const LdpcCode& code, int iterations, bool early_exit = false);

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
  bool early_exit_;
  // Workspace: global edge-indexed message arrays, reused across calls
  // (mutable so decode() stays const like every other solver in the repo).
  mutable std::vector<std::int16_t> r_;
  mutable std::vector<std::int16_t> q_;
};

}  // namespace renoc
