// NoC arbitration want[]-prepass kernel, templated over a util/simd i32
// lane backend and instantiated once per tier in the util/simd_*.cpp TUs.
//
// Scans the fabric's head-flit metadata mirrors (fifo_size, head_is_head,
// head_dst — maintained incrementally by Fabric::refresh_head) for all
// input ports at once and materializes the per-port routing decision the
// scalar arbitration loop computes inline:
//
//   want[f] = table[route_base[f] + head_dst[f]]   if the FIFO is
//             non-empty, the front flit is a head, and the route is not
//             kUnreachableRoute (0xFF); otherwise -1.
//
// route_base carries the per-port table row offset (node*nodes for the XY
// table, f*nodes for the per-input-port adaptive table), so one kernel
// serves both routing modes. Contracts: `ports` is padded to a multiple of
// the lane width with zeroed mirror tails (pad lanes index table row 0 and
// come out -1 because their fifo_size is 0), and the table carries 4 bytes
// of tail padding for the dword-gather overread (see Avx2I32::gather_u8).
// The mask arithmetic is bit-exact: every tier produces the identical
// want[] array, pinned by SimdWantScan in tests/simd_test.cpp.
#pragma once

#include <cstdint>

namespace renoc::noc_kernels {

inline constexpr std::uint8_t kUnreachableRouteByte = 0xFF;

// renoc-hot-begin (arbitration prepass: runs once per Fabric::step)

template <typename V>
void want_scan(const int* fifo_size, const std::uint8_t* head_is_head,
               const int* head_dst, const int* route_base,
               const std::uint8_t* route_table, int ports, int* want) {
  constexpr int W = V::kLanes;
  const V minus_one = V::set1(-1);
  const V unreachable = V::set1(kUnreachableRouteByte);
  for (int f = 0; f < ports; f += W) {
    const V size = V::load(fifo_size + f);
    const V is_head = V::widen_u8(head_is_head + f);
    const V ready = V::and_(V::cmpgt(size, V::zero()),
                            V::cmpgt(is_head, V::zero()));
    const V idx = V::add(V::load(route_base + f), V::load(head_dst + f));
    const V route = V::gather_u8(route_table, idx);
    const V usable = V::andnot(V::cmpeq(route, unreachable), ready);
    V::store(want + f,
             V::or_(V::and_(usable, route), V::andnot(usable, minus_one)));
  }
}

// renoc-hot-end

}  // namespace renoc::noc_kernels
