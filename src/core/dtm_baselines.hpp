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
//     node exceeds `trip_c`, the whole chip halts (dynamic power off,
//     leakage floor remains) until it cools below `trip_c - hysteresis_c`;
//     throughput = duty cycle of the "go" state.
//   * DvfsController    — dynamic frequency scaling: a proportional
//     governor picks a frequency multiplier d in [d_min, 1]; dynamic
//     power scales with d (clock-gating-style linear model, conservative
//     toward DVFS which scales super-linearly); throughput = average d.
//
// Both slow the *entire chip* to cool one hotspot — which is exactly why
// migration wins: it attacks the spatial non-uniformity instead.
// renoc_paper's PAPER_dtm.json targets each baseline at the peak
// temperature a migration scheme achieves and compares throughput costs.
//
// run() used to rebuild its factorizations per call — one transient
// (C/dt + G) factorization plus one steady G factorization, the same
// refactorize-per-call pattern PR 2 evicted from the experiment driver —
// which a 400-period equal-peak sweep over five configurations multiplies
// into dozens of redundant factorizations. Both controllers now keep a
// DtmIntegrator cache: the steady solver is factored once per controller
// and the transient solver once per distinct period; repeated (and
// mixed-period) run() calls are bit-identical to a fresh controller's
// (tests/dtm_test pins this).
#pragma once

#include <memory>
#include <vector>

#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace renoc {

struct DtmRunResult {
  double peak_temp_c = 0.0;       ///< settled peak (max over last quarter)
  double mean_temp_c = 0.0;
  double throughput_fraction = 1.0;  ///< delivered work / full-speed work
  int throttle_events = 0;           ///< halts (stop-go) / slowdowns (dvfs)
};

namespace detail {

/// Shared factorization cache + scratch for the two controllers: one
/// steady-state solver per controller lifetime, one transient solver per
/// distinct control period, and a reusable scaled-power buffer so the
/// control loop stops allocating per period.
class DtmIntegrator {
 public:
  explicit DtmIntegrator(const RcNetwork& net) : net_(&net) {}

  /// The transient solver for `dt`, factored on first use (and refactored
  /// only when the period changes), with its state initialized to the
  /// steady state of `power` — the same arithmetic as
  /// TransientSolver::set_state_to_steady, through a cached factorization.
  TransientSolver& prepared_transient(double dt,
                                      const std::vector<double>& power);

  /// power * (leakage_floor + (1 - leakage_floor) * duty) into a reused
  /// buffer (valid until the next call).
  const std::vector<double>& scaled_power(const std::vector<double>& power,
                                          double duty, double leakage_floor);

 private:
  const RcNetwork* net_;
  std::unique_ptr<SteadyStateSolver> steady_;
  std::unique_ptr<TransientSolver> transient_;
  double transient_dt_ = 0.0;
  std::vector<double> state_;   // steady-init scratch
  std::vector<double> scaled_;
};

}  // namespace detail

/// Chip-wide stop-go (clock disabling) under a thermal trip point.
class StopGoController {
 public:
  /// `leakage_floor` is the per-tile power that remains when the clock is
  /// gated (leakage + always-on logic), as a fraction of each tile's
  /// nominal power.
  StopGoController(const RcNetwork& net, double trip_c, double hysteresis_c,
                   double leakage_floor = 0.1);

  /// Runs `periods` control periods of `period_s` each, starting from the
  /// steady state of `power` (worst case: the chip arrives hot).
  DtmRunResult run(const std::vector<double>& power, double period_s,
                   int periods) const;

 private:
  const RcNetwork* net_;
  double trip_c_;
  double hysteresis_c_;
  double leakage_floor_;
  mutable detail::DtmIntegrator integrator_;  // lazy factorization cache
};

/// Chip-wide proportional frequency scaling under a thermal setpoint.
class DvfsController {
 public:
  /// Frequency multiplier d = clamp(1 - gain * (peak - setpoint), d_min, 1)
  /// re-evaluated every control period; dynamic power scales linearly
  /// with d above the leakage floor.
  DvfsController(const RcNetwork& net, double setpoint_c, double gain,
                 double d_min = 0.1, double leakage_floor = 0.1);

  DtmRunResult run(const std::vector<double>& power, double period_s,
                   int periods) const;

 private:
  const RcNetwork* net_;
  double setpoint_c_;
  double gain_;
  double d_min_;
  double leakage_floor_;
  mutable detail::DtmIntegrator integrator_;  // lazy factorization cache
};

}  // namespace renoc
