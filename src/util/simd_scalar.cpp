// Scalar-tier kernel table: the portable unrolled-array backend. Always
// compiled, in every build mode — it is both the -Werror portability pin
// for the kernel templates and the oracle the vector tiers are tested
// against.
#include "util/simd_tables.hpp"

namespace renoc::simd::detail {

const KernelTable* scalar_table() {
  static const KernelTable table =
      make_table<lanes::ScalarI32<8>>(Tier::kScalar);
  return &table;
}

}  // namespace renoc::simd::detail
