// Batched lane-per-codeword min-sum kernels, templated over a util/simd
// lane backend and instantiated once per tier in the util/simd_*.cpp TUs.
//
// Layout: int32 SoA with codewords in lanes — logical element i of
// codeword b lives at soa[i * stride + b], stride a multiple of the lane
// width with zero-filled tail lanes (AlignedVec). Variable-major edge
// slots are contiguous per variable (CSR var_offsets), so the VN sweep
// loads are contiguous; the CN sweep addresses whole lane groups through
// the check-major -> var-major slot map, so no per-lane gathers appear
// anywhere in the iteration loop.
//
// Every lane executes exactly the scalar op sequence of ldpc/minsum.hpp
// (same saturate order, same branch-free two-min tracking, same
// normalize-by-3/4 shift), so each lane's decode — including hard bits,
// syndrome_ok, and iterations_run — is bit-identical to
// MinSumDecoder::decode_into on that codeword. The agreement suite in
// tests/simd_test.cpp pins this.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ldpc/minsum.hpp"

namespace renoc::ldpc_kernels {

inline constexpr std::int32_t kMsgMax = minsum::kMsgMax;

// renoc-hot-begin (batched min-sum sweeps: the batch-BER innermost code)

template <typename V>
void batch_vn(const std::int32_t* llr, const std::int32_t* r, std::int32_t* q,
              const int* var_offsets, int n, int stride) {
  constexpr int W = V::kLanes;
  const V lo = V::set1(-kMsgMax);
  const V hi = V::set1(kMsgMax);
  for (int var = 0; var < n; ++var) {
    const int base = var_offsets[var];
    const int degree = var_offsets[var + 1] - base;
    const std::int32_t* llr_row =
        llr + static_cast<std::ptrdiff_t>(var) * stride;
    for (int g = 0; g < stride; g += W) {
      // Wide accumulation first, then per-edge extrinsic subtraction with
      // a single max-then-min saturation — the scalar kernel's order.
      V total = V::load(llr_row + g);
      for (int i = 0; i < degree; ++i) {
        total = V::add(
            total,
            V::load(r + static_cast<std::ptrdiff_t>(base + i) * stride + g));
      }
      for (int i = 0; i < degree; ++i) {
        const std::ptrdiff_t e =
            static_cast<std::ptrdiff_t>(base + i) * stride + g;
        V qv = V::sub(total, V::load(r + e));
        qv = V::min_(V::max_(qv, lo), hi);
        V::store(q + e, qv);
      }
    }
  }
}

template <typename V>
void batch_cn(const std::int32_t* q, std::int32_t* r, const int* check_offsets,
              const int* slots, int m, int stride) {
  constexpr int W = V::kLanes;
  const V kmax = V::set1(kMsgMax);
  const V sentinel = V::set1(kMsgMax + 1);
  const V one = V::set1(1);
  const V deg1_out = V::set1((3 * kMsgMax) >> 2);
  for (int c = 0; c < m; ++c) {
    const int base = check_offsets[c];
    const int degree = check_offsets[c + 1] - base;
    if (degree == 0) continue;
    if (degree == 1) {
      // Degenerate check: the extrinsic min over an empty set saturates.
      std::int32_t* out =
          r + static_cast<std::ptrdiff_t>(slots[base]) * stride;
      for (int g = 0; g < stride; g += W) V::store(out + g, deg1_out);
      continue;
    }
    for (int g = 0; g < stride; g += W) {
      // Branch-free two-min tracking, per lane the exact op sequence of
      // minsum::detail::check_update_impl.
      V min1 = sentinel;
      V min2 = sentinel;
      V min1_pos = V::zero();
      V neg_parity = V::zero();
      for (int i = 0; i < degree; ++i) {
        const V v = V::load(
            q + static_cast<std::ptrdiff_t>(slots[base + i]) * stride + g);
        const V is_neg = V::cmplt(v, V::zero());
        const V mag = V::sub(V::xor_(v, is_neg), is_neg);
        neg_parity = V::xor_(neg_parity, V::and_(is_neg, one));
        const V high = V::max_(mag, min1);
        const V take = V::cmplt(mag, min1);
        min1_pos = V::or_(V::andnot(take, min1_pos), V::and_(take, V::set1(i)));
        min1 = V::min_(mag, min1);
        min2 = V::min_(high, min2);
      }
      // saturate to kMsgMax then normalize by 3/4 (3*x as x+x+x, then an
      // arithmetic shift — magnitudes are non-negative).
      const V m1 = V::min_(min1, kmax);
      const V norm1 = V::template srai<2>(V::add(V::add(m1, m1), m1));
      const V m2 = V::min_(min2, kmax);
      const V norm2 = V::template srai<2>(V::add(V::add(m2, m2), m2));
      for (int i = 0; i < degree; ++i) {
        const std::ptrdiff_t e =
            static_cast<std::ptrdiff_t>(slots[base + i]) * stride + g;
        const V v = V::load(q + e);
        const V sign_bit = V::and_(V::cmplt(v, V::zero()), one);
        const V neg = V::sub(V::zero(), V::xor_(neg_parity, sign_bit));
        const V sel = V::cmpeq(V::set1(i), min1_pos);
        const V mag = V::or_(V::andnot(sel, norm1), V::and_(sel, norm2));
        V::store(r + e, V::sub(V::xor_(mag, neg), neg));
      }
    }
  }
}

template <typename V>
void batch_hard(const std::int32_t* llr, const std::int32_t* r,
                const int* var_offsets, int n, int stride,
                std::int32_t* bits) {
  constexpr int W = V::kLanes;
  const V one = V::set1(1);
  for (int var = 0; var < n; ++var) {
    const int base = var_offsets[var];
    const int degree = var_offsets[var + 1] - base;
    const std::int32_t* llr_row =
        llr + static_cast<std::ptrdiff_t>(var) * stride;
    for (int g = 0; g < stride; g += W) {
      V total = V::load(llr_row + g);
      for (int i = 0; i < degree; ++i) {
        total = V::add(
            total,
            V::load(r + static_cast<std::ptrdiff_t>(base + i) * stride + g));
      }
      V::store(bits + static_cast<std::ptrdiff_t>(var) * stride + g,
               V::and_(V::cmplt(total, V::zero()), one));
    }
  }
}

template <typename V>
void batch_syndrome(const std::int32_t* bits, const int* check_offsets,
                    const int* check_vars, int m, int stride,
                    std::int32_t* violated) {
  constexpr int W = V::kLanes;
  for (int g = 0; g < stride; g += W) V::store(violated + g, V::zero());
  for (int c = 0; c < m; ++c) {
    const int base = check_offsets[c];
    const int end = check_offsets[c + 1];
    for (int g = 0; g < stride; g += W) {
      V parity = V::zero();
      for (int s = base; s < end; ++s) {
        parity = V::xor_(
            parity,
            V::load(bits +
                    static_cast<std::ptrdiff_t>(check_vars[s]) * stride + g));
      }
      V::store(violated + g, V::or_(V::load(violated + g), parity));
    }
  }
}

// renoc-hot-end

}  // namespace renoc::ldpc_kernels
