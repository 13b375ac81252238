// Conventional dynamic-thermal-management baselines (the paper's foil).
//
// Introduction: "Thermal solutions employed in current commercial
// processors such as dynamic clock disabling and dynamic frequency scaling
// stop or shut down the entire chip for brief periods of time. Instead of
// shutting down or slowing down the entire chip, recent proposals have
// focused on migration..."
//
// To quantify that motivation we implement the two classic chip-wide
// mechanisms as closed-loop controllers over the same thermal RC network
// the migration experiments use:
//
//   * StopGoController  — dynamic clock disabling: when the hottest die
//     node exceeds `trip_c`, the whole chip halts (dynamic power off, a
//     leakage floor of 10% of each tile's power remains) until it cools
//     1 C below the trip; throughput = duty cycle of the "go" state.
//   * DvfsController    — dynamic frequency scaling: a proportional
//     governor picks a frequency multiplier d in [0.1, 1]; dynamic
//     power scales with d above the same leakage floor (clock-gating-style
//     linear model, conservative toward DVFS which scales
//     super-linearly); throughput = average d.
//
// Both slow the *entire chip* to cool one hotspot — which is exactly why
// migration wins: it attacks the spatial non-uniformity instead.
// renoc_paper's PAPER_dtm.json targets each baseline at the peak
// temperature a migration scheme achieves and compares throughput costs.
//
// Both run() calls share one integration loop: it factors its own
// transient solver for the period, starts it at the steady state of
// `power`, and asks the controller for each period's power map.
// renoc_paper runs each controller once per configuration, so a
// factorization kept across calls would save nothing; run() holds no
// state between calls.
#pragma once

#include <vector>

#include "thermal/rc_network.hpp"

namespace renoc {

struct DtmRunResult {
  double peak_temp_c = 0.0;       ///< settled peak (max over last quarter)
  double mean_temp_c = 0.0;
  double throughput_fraction = 1.0;  ///< delivered work / full-speed work
  int throttle_events = 0;           ///< halts (stop-go) / slowdowns (dvfs)
};

/// Chip-wide stop-go (clock disabling) under a thermal trip point.
class StopGoController {
 public:
  /// `trip_c` must lie above ambient.
  StopGoController(const RcNetwork& net, double trip_c);

  /// Runs `periods` control periods of `period_s` each, starting from the
  /// steady state of `power` (worst case: the chip arrives hot).
  DtmRunResult run(const std::vector<double>& power, double period_s,
                   int periods) const;

 private:
  const RcNetwork* net_;
  double trip_c_;
};

/// Chip-wide proportional frequency scaling under a thermal setpoint.
class DvfsController {
 public:
  /// Frequency multiplier d = clamp(1 - 0.25 * (peak - setpoint), 0.1, 1)
  /// re-evaluated every control period; dynamic power scales linearly
  /// with d above the leakage floor. `setpoint_c` must lie above ambient.
  DvfsController(const RcNetwork& net, double setpoint_c);

  DtmRunResult run(const std::vector<double>& power, double period_s,
                   int periods) const;

 private:
  const RcNetwork* net_;
  double setpoint_c_;
};

}  // namespace renoc
