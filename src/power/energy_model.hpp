// Activity-to-energy conversion (the Synopsys Power Compiler stand-in).
//
// The DATE'05 flow obtains per-unit power from Power Compiler runs over
// switching activity extracted by the NoC simulator. We use per-event
// energies in the style of Orion/bit-energy models, with magnitudes chosen
// for a 64-bit-flit router in a 160 nm standard-cell process. Absolute
// accuracy is not required: every chip configuration is calibrated so its
// baseline peak temperature matches the paper (see core/configs), and the
// experiments measure *differences* produced by migration. What must be
// right is the split between router, link, PE-compute, and migration
// energy, because that split decides how much the migration itself heats
// the chip (the paper's rotation penalty of ~0.3 C average).
#pragma once

#include <vector>

#include "noc/stats.hpp"

namespace renoc {

/// Per-event energies (joules) and per-tile leakage (watts).
struct EnergyParams {
  // Router events, per flit.
  double e_buffer_write = 30e-12;
  double e_buffer_read = 25e-12;
  double e_crossbar = 50e-12;
  double e_arbitration = 4e-12;
  // Inter-tile link traversal, per flit (~2.1 mm wire at 160 nm).
  double e_link = 80e-12;
  // One PE compute operation (an LDPC node-update equivalent).
  double e_pe_op = 220e-12;
  // Conversion-unit energy per migrated state word (Section 2.1's
  // transformation of configuration/state during migration).
  double e_state_word = 45e-12;
  // Leakage per tile, watts (temperature-independent).
  double p_leak_tile = 15e-3;

  void validate() const;
};

/// Converts tile activity counters into energy and power.
class EnergyModel {
 public:
  explicit EnergyModel(const EnergyParams& params);

  const EnergyParams& params() const { return params_; }

  /// Dynamic energy (J) implied by one tile's counters.
  double tile_dynamic_energy(const TileActivity& activity) const;

  /// Per-tile power map (W) over an observation window: dynamic energy
  /// divided by window length, plus p_leak_tile, all multiplied by `scale`
  /// (the per-configuration calibration factor).
  std::vector<double> power_map(const NetworkStats& stats,
                                double window_seconds,
                                double scale = 1.0) const;

 private:
  EnergyParams params_;
};

}  // namespace renoc
