// Thermal co-simulation of a migrating system.
//
// Migration periods (~100 us) are far below the die's thermal time
// constant (~1.3 ms with the HotSpot package), so the temperature field of
// a migrating chip is the steady state of the orbit-averaged power map
// plus a small periodic ripple. Rather than assuming that, this runtime
// *computes the exact periodic steady state*: it integrates the RC network
// with backward Euler through whole migration super-cycles (orbit length x
// period), feeding it the piecewise-constant power maps
//
//   segment k:  P_k = permute(base_power, orbit[k]) + spike_k
//
// where spike_k deposits that step's measured migration energy during the
// first integration step of the segment (energy-conserving; the migration
// window of ~1.75 us is shorter than one dt). Integration starts from the
// steady state of the averaged map and continues until the per-orbit peak
// temperature drifts by less than `tol` — typically a handful of orbits.
//
// For the static baseline pass an orbit of {identity} and zero migration
// energy: the result collapses to the steady-state solution.
//
// Implementation: this is the *engine* flavour of the orbit integration —
// the hot loop streams entirely in the factor's elimination order through
// persistent per-instance workspaces. Per run() it precomputes every
// segment's expanded + permuted power map and migration-spike vector once;
// per step it fuses the C/dt * state + P right-hand-side build, calls the
// permutation-free SparseLdlt::solve_permuted_in_place on a
// minimum-degree-ordered factor (about half the fill of the default RCM
// ordering), and folds the peak/mean die scans into one gather. After the
// first run() with a given problem shape, run() performs zero heap
// allocations.
//
// The pre-engine scalar path is preserved verbatim as the semantics
// oracle ReferenceThermalRuntime in tests/support; the engine agrees with
// it to <= 1e-10 on every ThermalRunResult field
// (tests/thermal_runtime_test pins this).
#pragma once

#include <memory>
#include <vector>

#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace renoc {

struct ThermalRunOptions {
  double period_s = 109.3e-6;   ///< time between migrations
  double dt_s = 2.0e-6;         ///< nominal transient step (snapped so an
                                ///< integer number of steps covers a period)
  int min_orbits = 3;
  int max_orbits = 400;
  double tol_c = 1e-3;          ///< per-orbit peak drift convergence bound

  void validate() const;
};

struct ThermalRunResult {
  double peak_temp_c = 0.0;   ///< max die temperature over the final orbit
  double mean_temp_c = 0.0;   ///< time-average of the mean die temperature
  double ripple_c = 0.0;      ///< peak-node max-min within the final orbit
  double steady_peak_of_avg_c = 0.0;  ///< diagnostic: steady state of the
                                      ///< orbit-averaged power map
  int orbits_run = 0;
  bool converged = false;
};

class MigrationThermalRuntime {
 public:
  MigrationThermalRuntime(const RcNetwork& net, ThermalRunOptions options);
  ~MigrationThermalRuntime();

  /// `base_power`: per-tile watts of the workload in its baseline
  /// placement. `orbit`: accumulated permutations [id, T, T^2, ...].
  /// `migration_energy`: per orbit-step, per-tile joules deposited by the
  /// migration that *starts* that segment (size must equal orbit size, or
  /// be empty for no migration energy). Step 0's entry represents the
  /// migration that wraps the orbit around (orbit[L-1] -> identity).
  ThermalRunResult run(
      const std::vector<double>& base_power,
      const std::vector<std::vector<int>>& orbit,
      const std::vector<std::vector<double>>& migration_energy) const;

  const RcNetwork& network() const { return *net_; }

 private:
  /// Number of transient steps covering one period (options_.dt_s rounded
  /// so an integer count fits; the snapped dt is period_s / this).
  int steps_per_period() const;

  // Factorizations and workspaces depend only on net_ and options_ (plus
  // problem shape, which only grows buffers), so they are built on the
  // first run() and reused by every later one. Mutable lazy state; not
  // thread-safe, like the rest of the library.
  struct Engine;
  const RcNetwork* net_;
  ThermalRunOptions options_;
  mutable std::unique_ptr<Engine> engine_;
};

}  // namespace renoc
