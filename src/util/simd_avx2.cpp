// AVX2-tier kernel table. CMake compiles this one TU with -mavx2 (when
// the compiler supports the flag and RENOC_SIMD is ON); no other TU may
// carry wide-vector flags, so AVX2 code cannot leak into paths executed
// before the runtime CPUID check in util/simd.cpp. Deliberately no -mfma:
// contraction would break the cross-tier bit-exactness contract.
#include "util/simd.hpp"

#if defined(__AVX2__) && !defined(RENOC_SIMD_DISABLED)

#include "util/simd_tables.hpp"

namespace renoc::simd::detail {

const KernelTable* avx2_table() {
  static const KernelTable table =
      make_table<lanes::Avx2I32>(Tier::kAvx2);
  return &table;
}

}  // namespace renoc::simd::detail

#else

namespace renoc::simd::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace renoc::simd::detail

#endif
