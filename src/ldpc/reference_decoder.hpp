// Seed-semantics reference decoders.
//
// These are the original (pre-flattening) decode loops, preserved verbatim
// as oracles: per-node in_buf/out_buf copies through the std::vector kernel
// API and per-call message allocation. They are deliberately slow — their
// job is to pin the message-passing semantics so the flat CSR engine can be
// proven bit-identical, the same role the dense LU test oracle
// (tests/support) plays for the sparse thermal path. Tests and the
// bench_micro_ldpc regression guard compare every DecodeResult field
// against these.
#pragma once

#include <cstdint>
#include <vector>

#include "ldpc/code.hpp"
#include "ldpc/decoder.hpp"

namespace renoc {

/// The seed MinSumDecoder::decode loop: flooding min-sum over quantized
/// LLRs with per-variable copy-in/copy-out scratch.
DecodeResult reference_minsum_decode(
    const LdpcCode& code, int iterations, bool early_exit,
    const std::vector<std::int16_t>& channel_llrs);

/// The seed SumProductDecoder::decode loop: tanh-rule belief propagation
/// with per-check prefix/suffix scratch allocated per call.
DecodeResult reference_sum_product_decode(
    const LdpcCode& code, int iterations, bool early_exit,
    const std::vector<double>& channel_llrs);

}  // namespace renoc
