// The migration unit at the chip I/O interface (Section 2.3).
//
// "...a simplified I/O interface to the outside of the chip, by
// transforming the destination address assigned to all incoming packets
// and transforming the source address of all packets leaving the chip. By
// including a migration unit at the I/O interface, the migration operation
// is totally transparent to the outside world."
//
// The AddressTranslator keeps the accumulated logical->physical map. The
// outside world always addresses *logical* PEs (their positions before any
// migration); ingress packets get their destination rewritten to the
// current physical tile, egress packets get their source rewritten back to
// the logical address. Because every migration function is a bijection
// with a 3-bit-operand arithmetic implementation (Table 1), the hardware
// cost is a pair of small adders — here we model the function, and the
// bench measures its software cost.
#pragma once

#include <vector>

#include "core/transform.hpp"
#include "floorplan/grid.hpp"
#include "noc/flit.hpp"

namespace renoc {

class AddressTranslator {
 public:
  explicit AddressTranslator(const GridDim& dim);

  /// Composes one more migration into the accumulated map (called once per
  /// migration event, after the workloads have moved).
  void apply(const Transform& t);

  /// Physical tile currently hosting `logical` (ingress rewrite).
  int logical_to_physical(int logical) const;

  /// Logical address of the workload on `physical` (egress rewrite).
  int physical_to_logical(int physical) const;

  /// Rewrites an ingress message in place: dst is interpreted as a logical
  /// PE and replaced by its physical tile.
  void rewrite_ingress(Message& msg) const;

  /// Rewrites an egress message in place: src is a physical tile and is
  /// replaced by the logical PE address the outside world knows.
  void rewrite_egress(Message& msg) const;

  const std::vector<int>& map() const { return logical_to_physical_; }
  const GridDim& dim() const { return dim_; }
  int migrations_applied() const { return migrations_applied_; }

 private:
  GridDim dim_;
  std::vector<int> logical_to_physical_;
  std::vector<int> physical_to_logical_;
  int migrations_applied_ = 0;
};

}  // namespace renoc
