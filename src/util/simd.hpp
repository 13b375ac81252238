// Fixed-width SIMD lane abstraction with compile-time backends and
// one-time runtime dispatch.
//
// Layout of the layer:
//
//   - Lane wrappers (`lanes::*`, below): value types holding one int32
//     SIMD register (or a plain array for the portable fallback) with a
//     uniform static-function API. Three backends:
//       * ScalarI32<W> — unrolled scalar array, compiles everywhere under
//         -Werror, no intrinsics. Always available.
//       * Sse2I32 — strict SSE2 (the x86-64 baseline, so the TU needs no
//         extra flags).
//       * Avx2I32 — AVX2, compiled only into simd_avx2.cpp which gets
//         -mavx2 as a per-source-file option.
//   - Engine kernels (ldpc/batch_kernels.hpp, noc/arb_kernels.hpp):
//     templates over a lane backend, instantiated once per tier in the
//     three tier TUs (simd_scalar/sse2/avx2.cpp).
//   - KernelTable: per-tier function-pointer table. `kernels()` resolves
//     the active table once (CPUID + RENOC_SIMD_TIER env override, see
//     simd.cpp); engines call through it so one binary picks the best
//     tier at startup.
//
// Numerical contract: every vector kernel replicates the scalar engine's
// per-element op order exactly, so all kernels are bit-exact across tiers.
// The floating-point LDL^T sweeps of util/sparse are plain scalar loops:
// vector lanes ran them no faster end to end.
//
// Raw intrinsics are confined to this header's lane wrappers and the
// util/simd* TUs — `renoc_lint` enforces that (rule `simd-intrinsics`).
#pragma once

#include <cstdint>

#if defined(__SSE2__) || defined(__AVX2__)
#include <immintrin.h>  // renoc-lint-allow(simd-intrinsics): this is the one sanctioned home
#endif

namespace renoc::simd {

// ---------------------------------------------------------------------------
// Tiers and dispatch
// ---------------------------------------------------------------------------

enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };
inline constexpr int kTierCount = 3;

const char* tier_name(Tier tier);

/// Parses "scalar" / "sse2" / "avx2" (exact, lowercase). Returns false and
/// leaves `out` untouched on anything else.
bool parse_tier(const char* name, Tier& out);

/// Per-tier kernel table. Signatures are plain C-style so tier TUs can be
/// compiled with different instruction-set flags without ODR hazards.
///
/// LDPC batch kernels operate on a lane-per-codeword int32 SoA: logical
/// element i of codeword b lives at `soa[i * stride + b]`, with `stride` a
/// multiple of 8 and tail lanes zero-filled (see AlignedVec).
struct KernelTable {
  Tier tier = Tier::kScalar;

  /// Variable-node sweep: q[e] = saturate(llr[v] + sum_r - r[e]) for every
  /// edge e of every variable v (var-major edge order, CSR var_offsets).
  void (*ldpc_batch_vn)(const std::int32_t* llr, const std::int32_t* r,
                        std::int32_t* q, const int* var_offsets, int n,
                        int stride);
  /// Check-node sweep: normalized two-min update over check-major
  /// positions; `slots` maps check-major position -> var-major edge slot.
  void (*ldpc_batch_cn)(const std::int32_t* q, std::int32_t* r,
                        const int* check_offsets, const int* slots, int m,
                        int stride);
  /// Posterior hard decision: bits[v] = (llr[v] + sum_e r[e]) < 0.
  void (*ldpc_batch_hard)(const std::int32_t* llr, const std::int32_t* r,
                          const int* var_offsets, int n, int stride,
                          std::int32_t* bits);
  /// Per-lane syndrome: violated[b] != 0 iff some check has odd parity.
  /// `check_vars` maps check-major position -> variable index.
  void (*ldpc_batch_syndrome)(const std::int32_t* bits,
                              const int* check_offsets, const int* check_vars,
                              int m, int stride, std::int32_t* violated);

  /// NoC arbitration want[]-prepass over the head-flit mirrors: for each
  /// port f, want[f] = route_table[route_base[f] + head_dst[f]] when the
  /// FIFO is non-empty, the front flit is a head, and the route is not
  /// 0xFF (unreachable); otherwise -1. `ports` must be a multiple of 8;
  /// the route table must carry 4 bytes of tail padding (gather overread).
  void (*noc_want_scan)(const int* fifo_size, const std::uint8_t* head_is_head,
                        const int* head_dst, const int* route_base,
                        const std::uint8_t* route_table, int ports, int* want);
};

/// The table for `tier`, or nullptr when that tier is not compiled in
/// (RENOC_SIMD=OFF, non-x86, missing -mavx2 support) or the CPU lacks it.
/// kScalar is never null.
const KernelTable* kernel_table(Tier tier);

/// The active table: best compiled-and-CPU-supported tier, clamped down by
/// the RENOC_SIMD_TIER environment variable ("scalar"/"sse2"/"avx2") when
/// set. Resolved once on first call; cheap afterwards.
const KernelTable& kernels();

Tier active_tier();
const char* active_tier_name();

namespace detail {
// Defined in the tier TUs; null when the tier is compiled out.
const KernelTable* scalar_table();
const KernelTable* sse2_table();
const KernelTable* avx2_table();
bool cpu_supports(Tier tier);
}  // namespace detail

// ---------------------------------------------------------------------------
// Lane wrappers
// ---------------------------------------------------------------------------
//
// Uniform backend API (W = kLanes):
//   I32 ops: load/store (unaligned), set1, zero, add, sub, min_, max_,
//            cmplt/cmpeq/cmpgt (all-ones / all-zero lane masks), and_, or_,
//            xor_, andnot (~a & b), srai<N> (arithmetic shift),
//            widen_u8 (load W bytes, zero-extend), gather_u8 (byte table
//            lookup at int32 indices; may read up to 4 bytes at each
//            base+idx, so tables need 4 tail-padding bytes).

namespace lanes {

/// Portable fallback: W-lane vectors as plain arrays. The loops are
/// trivially unrollable; semantics exactly match the intrinsic wrappers.
template <int W>
struct ScalarI32 {
  static constexpr int kLanes = W;
  std::int32_t v[W];

  static ScalarI32 load(const std::int32_t* p) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static void store(std::int32_t* p, ScalarI32 a) {
    for (int i = 0; i < W; ++i) p[i] = a.v[i];
  }
  static ScalarI32 set1(std::int32_t x) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }
  static ScalarI32 zero() { return set1(0); }
  static ScalarI32 add(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) {
      // Wrapping add, matching _mm_add_epi32 (lanes stay far from the
      // int32 edge in every kernel, but keep the fallback well-defined).
      r.v[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a.v[i]) +
          static_cast<std::uint32_t>(b.v[i]));
    }
    return r;
  }
  static ScalarI32 sub(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) {
      r.v[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a.v[i]) -
          static_cast<std::uint32_t>(b.v[i]));
    }
    return r;
  }
  static ScalarI32 min_(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static ScalarI32 max_(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static ScalarI32 cmplt(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
    return r;
  }
  static ScalarI32 cmpeq(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] == b.v[i] ? -1 : 0;
    return r;
  }
  static ScalarI32 cmpgt(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? -1 : 0;
    return r;
  }
  static ScalarI32 and_(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
  }
  static ScalarI32 or_(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
  }
  static ScalarI32 xor_(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] ^ b.v[i];
    return r;
  }
  static ScalarI32 andnot(ScalarI32 a, ScalarI32 b) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = ~a.v[i] & b.v[i];
    return r;
  }
  template <int N>
  static ScalarI32 srai(ScalarI32 a) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = a.v[i] >> N;
    return r;
  }
  static ScalarI32 widen_u8(const std::uint8_t* p) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) r.v[i] = static_cast<std::int32_t>(p[i]);
    return r;
  }
  static ScalarI32 gather_u8(const std::uint8_t* base, ScalarI32 idx) {
    ScalarI32 r;
    for (int i = 0; i < W; ++i) {
      r.v[i] = static_cast<std::int32_t>(base[idx.v[i]]);
    }
    return r;
  }
};

#if defined(__SSE2__)

/// Strict SSE2 (no SSE4.1): epi32 min/max are emulated with a compare and
/// mask blend, which keeps the TU compilable at the x86-64 baseline.
struct Sse2I32 {
  static constexpr int kLanes = 4;
  __m128i v;

  static Sse2I32 load(const std::int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static void store(std::int32_t* p, Sse2I32 a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
  }
  static Sse2I32 set1(std::int32_t x) { return {_mm_set1_epi32(x)}; }
  static Sse2I32 zero() { return {_mm_setzero_si128()}; }
  static Sse2I32 add(Sse2I32 a, Sse2I32 b) { return {_mm_add_epi32(a.v, b.v)}; }
  static Sse2I32 sub(Sse2I32 a, Sse2I32 b) { return {_mm_sub_epi32(a.v, b.v)}; }
  static Sse2I32 cmplt(Sse2I32 a, Sse2I32 b) {
    return {_mm_cmplt_epi32(a.v, b.v)};
  }
  static Sse2I32 cmpeq(Sse2I32 a, Sse2I32 b) {
    return {_mm_cmpeq_epi32(a.v, b.v)};
  }
  static Sse2I32 cmpgt(Sse2I32 a, Sse2I32 b) {
    return {_mm_cmpgt_epi32(a.v, b.v)};
  }
  static Sse2I32 and_(Sse2I32 a, Sse2I32 b) { return {_mm_and_si128(a.v, b.v)}; }
  static Sse2I32 or_(Sse2I32 a, Sse2I32 b) { return {_mm_or_si128(a.v, b.v)}; }
  static Sse2I32 xor_(Sse2I32 a, Sse2I32 b) { return {_mm_xor_si128(a.v, b.v)}; }
  static Sse2I32 andnot(Sse2I32 a, Sse2I32 b) {
    return {_mm_andnot_si128(a.v, b.v)};
  }
  static Sse2I32 min_(Sse2I32 a, Sse2I32 b) {
    const Sse2I32 m = cmplt(a, b);
    return or_(and_(m, a), andnot(m, b));
  }
  static Sse2I32 max_(Sse2I32 a, Sse2I32 b) {
    const Sse2I32 m = cmpgt(a, b);
    return or_(and_(m, a), andnot(m, b));
  }
  template <int N>
  static Sse2I32 srai(Sse2I32 a) {
    return {_mm_srai_epi32(a.v, N)};
  }
  static Sse2I32 widen_u8(const std::uint8_t* p) {
    std::int32_t packed = 0;
    __builtin_memcpy(&packed, p, 4);
    const __m128i z = _mm_setzero_si128();
    const __m128i b = _mm_cvtsi32_si128(packed);
    return {_mm_unpacklo_epi16(_mm_unpacklo_epi8(b, z), z)};
  }
  static Sse2I32 gather_u8(const std::uint8_t* base, Sse2I32 idx) {
    alignas(16) std::int32_t i[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(i), idx.v);
    return {_mm_set_epi32(base[i[3]], base[i[2]], base[i[1]], base[i[0]])};
  }
};

#endif  // __SSE2__

#if defined(__AVX2__)

struct Avx2I32 {
  static constexpr int kLanes = 8;
  __m256i v;

  static Avx2I32 load(const std::int32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(std::int32_t* p, Avx2I32 a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
  }
  static Avx2I32 set1(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
  static Avx2I32 zero() { return {_mm256_setzero_si256()}; }
  static Avx2I32 add(Avx2I32 a, Avx2I32 b) {
    return {_mm256_add_epi32(a.v, b.v)};
  }
  static Avx2I32 sub(Avx2I32 a, Avx2I32 b) {
    return {_mm256_sub_epi32(a.v, b.v)};
  }
  static Avx2I32 min_(Avx2I32 a, Avx2I32 b) {
    return {_mm256_min_epi32(a.v, b.v)};
  }
  static Avx2I32 max_(Avx2I32 a, Avx2I32 b) {
    return {_mm256_max_epi32(a.v, b.v)};
  }
  static Avx2I32 cmplt(Avx2I32 a, Avx2I32 b) {
    return {_mm256_cmpgt_epi32(b.v, a.v)};
  }
  static Avx2I32 cmpeq(Avx2I32 a, Avx2I32 b) {
    return {_mm256_cmpeq_epi32(a.v, b.v)};
  }
  static Avx2I32 cmpgt(Avx2I32 a, Avx2I32 b) {
    return {_mm256_cmpgt_epi32(a.v, b.v)};
  }
  static Avx2I32 and_(Avx2I32 a, Avx2I32 b) {
    return {_mm256_and_si256(a.v, b.v)};
  }
  static Avx2I32 or_(Avx2I32 a, Avx2I32 b) {
    return {_mm256_or_si256(a.v, b.v)};
  }
  static Avx2I32 xor_(Avx2I32 a, Avx2I32 b) {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  static Avx2I32 andnot(Avx2I32 a, Avx2I32 b) {
    return {_mm256_andnot_si256(a.v, b.v)};
  }
  template <int N>
  static Avx2I32 srai(Avx2I32 a) {
    return {_mm256_srai_epi32(a.v, N)};
  }
  static Avx2I32 widen_u8(const std::uint8_t* p) {
    return {_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)))};
  }
  static Avx2I32 gather_u8(const std::uint8_t* base, Avx2I32 idx) {
    // Scale-1 dword gather reads 4 bytes at each base+idx (hence the
    // 4-byte table padding contract); keep only the addressed byte. The
    // masked form avoids gcc's uninitialized pass-through source warning.
    const __m256i g = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(base), idx.v,
        _mm256_set1_epi32(-1), 1);
    return {_mm256_and_si256(g, _mm256_set1_epi32(0xFF))};
  }
};

#endif  // __AVX2__

}  // namespace lanes

}  // namespace renoc::simd
