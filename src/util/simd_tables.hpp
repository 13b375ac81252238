// Shared assembly of a per-tier KernelTable from the engine kernel
// templates. Included only by the tier TUs (util/simd_scalar.cpp,
// util/simd_sse2.cpp, util/simd_avx2.cpp) — each instantiates the full
// kernel set for its lane backend under its own instruction-set flags.
#pragma once

#include "ldpc/batch_kernels.hpp"
#include "noc/arb_kernels.hpp"
#include "util/simd.hpp"

namespace renoc::simd::detail {

template <typename I32>
KernelTable make_table(Tier tier) {
  KernelTable t{};
  t.tier = tier;
  t.ldpc_batch_vn = &renoc::ldpc_kernels::batch_vn<I32>;
  t.ldpc_batch_cn = &renoc::ldpc_kernels::batch_cn<I32>;
  t.ldpc_batch_hard = &renoc::ldpc_kernels::batch_hard<I32>;
  t.ldpc_batch_syndrome = &renoc::ldpc_kernels::batch_syndrome<I32>;
  t.noc_want_scan = &renoc::noc_kernels::want_scan<I32>;
  return t;
}

}  // namespace renoc::simd::detail
