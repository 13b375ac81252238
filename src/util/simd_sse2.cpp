// SSE2-tier kernel table. SSE2 is the x86-64 baseline, so this TU needs
// no extra compile flags; on non-x86 targets (or with RENOC_SIMD=OFF) it
// compiles to a null table and dispatch falls back to the scalar tier.
#include "util/simd.hpp"

#if defined(__SSE2__) && !defined(RENOC_SIMD_DISABLED)

#include "util/simd_tables.hpp"

namespace renoc::simd::detail {

const KernelTable* sse2_table() {
  static const KernelTable table =
      make_table<lanes::Sse2I32>(Tier::kSse2);
  return &table;
}

}  // namespace renoc::simd::detail

#else

namespace renoc::simd::detail {

const KernelTable* sse2_table() { return nullptr; }

}  // namespace renoc::simd::detail

#endif
