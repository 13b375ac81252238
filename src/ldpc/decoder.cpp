#include "ldpc/decoder.hpp"

#include <algorithm>

#include "ldpc/minsum.hpp"
#include "util/check.hpp"

namespace renoc {

MinSumDecoder::MinSumDecoder(const LdpcCode& code, int iterations)
    : code_(&code), iterations_(iterations) {
  RENOC_CHECK(iterations_ >= 1);
  r_.resize(static_cast<std::size_t>(code.edge_count()));
  q_.resize(static_cast<std::size_t>(code.edge_count()));
}

DecodeResult MinSumDecoder::decode(
    const std::vector<std::int16_t>& channel_llrs) const {
  DecodeResult result;
  decode_into(channel_llrs, result);
  return result;
}

void MinSumDecoder::decode_into(const std::vector<std::int16_t>& channel_llrs,
                                DecodeResult& result) const {
  const LdpcCode& code = *code_;
  RENOC_CHECK(static_cast<int>(channel_llrs.size()) == code.n());

  // r_ and q_ are the check->var and var->check halves of the per-decoder
  // workspace, indexed by global edge id. Only r_ needs clearing: the first
  // VN phase reads it, while every q_ slot is written by the VN phase (each
  // edge belongs to exactly one variable) before the CN phase reads any.
  std::fill(r_.begin(), r_.end(), static_cast<std::int16_t>(0));
  // renoc-lint-allow(hot-alloc): sizes once; reused results keep capacity
  result.hard_bits.resize(static_cast<std::size_t>(code.n()));

  const int n = code.n();
  const int m = code.m();
  const std::int16_t* llr = channel_llrs.data();
  const int* var_off = code.var_offsets().data();
  const int* var_ids = code.var_edge_ids().data();
  const int* check_off = code.check_offsets().data();
  const int* check_ids = code.check_edge_ids().data();
  std::int16_t* r = r_.data();
  std::int16_t* q = q_.data();

  // renoc-hot-begin (flooding iteration loop: the BER-sweep inner kernel)
  for (int iter = 0; iter < iterations_; ++iter) {
    // Variable-node phase (uses r of the previous iteration), then
    // check-node phase — the flooding schedule of the hardware.
    for (int v = 0; v < n; ++v)
      minsum::var_update_edges(llr[v], r, q, var_ids + var_off[v],
                               var_off[v + 1] - var_off[v]);
    for (int c = 0; c < m; ++c)
      minsum::check_update_edges(q, r, check_ids + check_off[c],
                                 check_off[c + 1] - check_off[c]);
  }

  // Final hard decision from posteriors.
  for (int v = 0; v < n; ++v)
    result.hard_bits[static_cast<std::size_t>(v)] =
        minsum::var_posterior_edges(llr[v], r, var_ids + var_off[v],
                                    var_off[v + 1] - var_off[v]) < 0
            ? 1
            : 0;
  result.syndrome_ok = code.is_codeword(result.hard_bits);
  result.iterations_run = iterations_;
  // renoc-hot-end
}

}  // namespace renoc
