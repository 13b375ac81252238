#include "ldpc/decoder.hpp"

#include <algorithm>

#include "ldpc/minsum.hpp"
#include "util/check.hpp"

namespace renoc {
namespace {

// Fixed-degree sweeps: with DEG a compile-time constant the inlined kernels
// unroll completely and the offset array is never touched. The generic
// fallbacks read per-node offsets instead; both produce identical messages.

template <int DEG>
void vn_phase_fixed(int n, const std::int16_t* llr, const std::int16_t* r,
                    std::int16_t* q) {
  for (int v = 0; v < n; ++v)
    minsum::var_update(llr[v], r + static_cast<std::ptrdiff_t>(v) * DEG,
                       q + static_cast<std::ptrdiff_t>(v) * DEG, DEG);
}

template <int DEG, typename SlotT>
void cn_phase_fixed(int m, const std::int16_t* q, std::int16_t* r,
                    const SlotT* slots) {
  for (int c = 0; c < m; ++c)
    minsum::check_update_edges_fixed<DEG>(
        q, r, slots + static_cast<std::ptrdiff_t>(c) * DEG);
}

template <int DEG>
void hard_decide_fixed(int n, const std::int16_t* llr, const std::int16_t* r,
                       std::uint8_t* bits) {
  for (int v = 0; v < n; ++v)
    bits[v] = minsum::var_posterior(
                  llr[v], r + static_cast<std::ptrdiff_t>(v) * DEG, DEG) < 0
                  ? 1
                  : 0;
}

void vn_phase(const LdpcCode& code, const std::int16_t* llr,
              const std::int16_t* r, std::int16_t* q) {
  const int n = code.n();
  switch (code.uniform_var_degree()) {
    case 2: return vn_phase_fixed<2>(n, llr, r, q);
    case 3: return vn_phase_fixed<3>(n, llr, r, q);
    case 4: return vn_phase_fixed<4>(n, llr, r, q);
    case 5: return vn_phase_fixed<5>(n, llr, r, q);
    case 6: return vn_phase_fixed<6>(n, llr, r, q);
    default: break;
  }
  const int* off = code.var_offsets().data();
  for (int v = 0; v < n; ++v)
    minsum::var_update(llr[v], r + off[v], q + off[v], off[v + 1] - off[v]);
}

/// Runs the fixed-degree check sweep if `deg` has a specialization;
/// returns false to send the caller to the generic loop. One ladder for
/// both slot-index widths so a new degree cannot be added to one and
/// silently miss the other.
template <typename SlotT>
bool cn_phase_fixed_dispatch(int deg, int m, const std::int16_t* q,
                             std::int16_t* r, const SlotT* slots) {
  switch (deg) {
    case 4: cn_phase_fixed<4>(m, q, r, slots); return true;
    case 5: cn_phase_fixed<5>(m, q, r, slots); return true;
    case 6: cn_phase_fixed<6>(m, q, r, slots); return true;
    case 7: cn_phase_fixed<7>(m, q, r, slots); return true;
    case 8: cn_phase_fixed<8>(m, q, r, slots); return true;
    default: return false;
  }
}

void cn_phase(const LdpcCode& code, const std::int16_t* q, std::int16_t* r) {
  const int m = code.m();
  const int deg = code.uniform_check_degree();
  if (!code.check_var_slots16().empty() &&
      cn_phase_fixed_dispatch(deg, m, q, r, code.check_var_slots16().data()))
    return;
  const int* slots = code.check_var_slots().data();
  if (cn_phase_fixed_dispatch(deg, m, q, r, slots)) return;
  const int* off = code.check_offsets().data();
  for (int c = 0; c < m; ++c)
    minsum::check_update_edges(q, r, slots + off[c], off[c + 1] - off[c]);
}

void hard_decide(const LdpcCode& code, const std::int16_t* llr,
                 const std::int16_t* r, std::uint8_t* bits) {
  const int n = code.n();
  switch (code.uniform_var_degree()) {
    case 2: return hard_decide_fixed<2>(n, llr, r, bits);
    case 3: return hard_decide_fixed<3>(n, llr, r, bits);
    case 4: return hard_decide_fixed<4>(n, llr, r, bits);
    case 5: return hard_decide_fixed<5>(n, llr, r, bits);
    case 6: return hard_decide_fixed<6>(n, llr, r, bits);
    default: break;
  }
  const int* off = code.var_offsets().data();
  for (int v = 0; v < n; ++v)
    bits[v] = minsum::var_posterior(llr[v], r + off[v],
                                    off[v + 1] - off[v]) < 0
                  ? 1
                  : 0;
}

}  // namespace

MinSumDecoder::MinSumDecoder(const LdpcCode& code, int iterations,
                             bool early_exit)
    : code_(&code), iterations_(iterations), early_exit_(early_exit) {
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

  // Messages are stored var-major (see the class comment); r_ and q_ are
  // the check->var and var->check halves of the per-decoder workspace.
  // Only r_ needs clearing: the first VN phase reads it, while every q_
  // slot is written by vn_phase (each edge belongs to exactly one
  // variable) before cn_phase reads any.
  std::fill(r_.begin(), r_.end(), static_cast<std::int16_t>(0));
  // renoc-lint-allow(hot-alloc): sizes once; reused results keep capacity
  result.hard_bits.resize(static_cast<std::size_t>(code.n()));

  const std::int16_t* llr = channel_llrs.data();

  // renoc-hot-begin (flooding iteration loop: the BER-sweep inner kernel)
  int iter = 0;
  for (; iter < iterations_; ++iter) {
    // Variable-node phase (uses r of the previous iteration), then
    // check-node phase — the flooding schedule of the hardware.
    vn_phase(code, llr, r_.data(), q_.data());
    cn_phase(code, q_.data(), r_.data());
    if (early_exit_) {
      // Tentative hard decision to test the syndrome.
      hard_decide(code, llr, r_.data(), result.hard_bits.data());
      if (code.is_codeword(result.hard_bits)) {
        result.syndrome_ok = true;
        result.iterations_run = iter + 1;
        return;
      }
    }
  }

  // Final hard decision from posteriors.
  hard_decide(code, llr, r_.data(), result.hard_bits.data());
  result.syndrome_ok = code.is_codeword(result.hard_bits);
  result.iterations_run = iter;
  // renoc-hot-end
}

}  // namespace renoc
