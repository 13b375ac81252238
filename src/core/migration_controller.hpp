// Runtime migration execution over the NoC (Sections 2.1-2.3).
//
// One migration event, exactly as the paper describes it:
//   1. the PEs are halted (injection disabled; in-flight traffic drains),
//   2. each PE's configuration+state is passed through the conversion unit
//      (counted as pe_state_words activity on the source tile),
//   3. the state travels to its destination tile as one wormhole packet,
//      in congestion-free phases (schedule_phases),
//   4. the I/O address translator composes the transform so the outside
//      world keeps using logical addresses,
//   5. the PEs resume at their new homes.
//
// The controller drives a real Fabric so migration traffic shows up in the
// activity counters (and therefore in the power/thermal results — the
// paper explicitly includes migration energy in its simulations).
#pragma once

#include <cstdint>
#include <vector>

#include "core/migration_unit.hpp"
#include "core/phase_scheduler.hpp"
#include "core/transform.hpp"
#include "noc/fabric.hpp"

namespace renoc {

struct MigrationReport {
  Cycle total_cycles = 0;       ///< full halt: drain + phases + handshakes
  Cycle transfer_cycles = 0;    ///< state-transfer portion (incl. barriers)
  int phases = 0;
  std::uint64_t state_flits = 0;  ///< flits of state moved
  int moves = 0;                   ///< PEs whose state traveled
};

class MigrationController {
 public:
  /// The controller owns the address translator for its fabric.
  MigrationController(Fabric& fabric, Transform transform);

  const Transform& transform() const { return transform_; }
  const AddressTranslator& translator() const { return translator_; }

  /// Executes one migration. `placement` maps cluster -> tile and is
  /// updated in place; `state_words[cluster]` sizes each cluster's state
  /// packet. The fabric must contain no application traffic (callers halt
  /// the workload at a block boundary first); any residual traffic is
  /// drained and counted into total_cycles. A delivery still unread after
  /// that drain throws CheckError before any state packet is sent: it
  /// stays unread, injection is enabled at every node, and neither
  /// `placement` nor the translator changes. A state packet that does not
  /// arrive (a fault plan cut its path) throws CheckError after the PEs
  /// resume where they were: the packets that did arrive are consumed,
  /// injection is enabled at every node, and neither `placement` nor the
  /// translator changes.
  MigrationReport migrate(std::vector<int>& placement,
                          const std::vector<int>& state_words);

  /// Number of migrations performed so far.
  int migrations() const { return translator_.migrations_applied(); }

 private:
  Fabric* fabric_;
  Transform transform_;
  AddressTranslator translator_;
};

}  // namespace renoc
