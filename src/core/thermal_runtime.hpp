// Thermal co-simulation of a migrating system.
//
// Migration periods (~100 us) are far below the die's thermal time
// constant (~1.3 ms with the HotSpot package), so the temperature field of
// a migrating chip is the steady state of the orbit-averaged power map
// plus a small periodic ripple. Rather than assuming that, this runtime
// integrates towards the periodic steady state: it integrates the RC
// network with backward Euler through whole migration super-cycles (orbit
// length x period), feeding it the piecewise-constant power maps
//
//   segment k:  P_k = permute(base_power, orbit[k]) + spike_k
//
// where spike_k deposits that step's measured migration energy during the
// first integration step of the segment (energy-conserving; the migration
// window of ~1.75 us is shorter than one dt). Integration starts from the
// steady state of the averaged map and stops once, after `min_orbits`, the
// per-orbit peak temperature drifts by less than `tol_c` — typically a
// handful of orbits. That bounds the drift, not the error: the result is
// not the exact periodic state. ROADMAP item 2 measured the peak 0.4-23.2
// m°C and the ripple up to 39 m°C off the exact periodic state of the same
// backward-Euler system on the period-record cells.
//
// For the static baseline pass an orbit of {identity} and zero migration
// energy: the result collapses to the steady-state solution.
//
// Implementation: this is the *engine* flavour of the orbit integration.
// Every co-simulation handed to one run_batch() call shares the network,
// the period and therefore the backward-Euler factor, so the batch
// integrates in lockstep: the jobs' states are the columns of one
// slot-major block kept in the factor's elimination order, and each
// transient step is one fused multi-column SparseLdlt::step_permuted call
// (C/dt * state + P build, forward sweep by rows, backward sweep with
// D^{-1} fused) on a minimum-degree-ordered factor (about half the fill of
// the default RCM ordering), followed by one peak/mean gather over the die
// slots. All jobs take the same number of steps per period, so their
// segment boundaries coincide; at each segment start every column's power
// map is rebuilt from base_power and its orbit permutation, with its
// migration spike added for the first step only. Each job keeps its own
// orbit length, convergence test, orbit counter and mean accumulator, and
// leaves the block — which is compacted — once it converges or reaches
// max_orbits. Static jobs take the steady-state shortcut and never enter
// the block.
//
// Every column performs exactly the arithmetic of a lone run() in the same
// order, so each result of a batch equals the lone run() of its job bit
// for bit, at any batch size or mix; run() is a batch of one. After the
// first call with a given problem shape and batch width, run() and
// run_batch() perform zero heap allocations.
//
// The pre-engine scalar path is preserved verbatim as the semantics
// oracle ReferenceThermalRuntime in tests/support; the engine agrees with
// it to <= 1e-10 on every ThermalRunResult field
// (tests/thermal_runtime_test pins this).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace renoc {

struct ThermalRunOptions {
  double period_s = 109.3e-6;   ///< time between migrations (finite)
  double dt_s = 2.0e-6;         ///< nominal transient step (snapped so an
                                ///< integer number of steps covers a
                                ///< period; that count must fit in int)
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

/// One co-simulation of a run_batch() call: an orbit and its per-segment
/// migration-energy maps, with the meaning run() gives them. A null or
/// empty `migration_energy` means no migration energy. Both must outlive
/// the call.
struct ThermalJob {
  const std::vector<std::vector<int>>* orbit = nullptr;
  const std::vector<std::vector<double>>* migration_energy = nullptr;
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

  /// Runs every job on the same `base_power` in lockstep and writes job
  /// i's result to results[i] (caller-owned; sizes must match). Each
  /// result equals run() of that job's orbit and migration energy (empty
  /// when null) bit for bit.
  void run_batch(const std::vector<double>& base_power,
                 std::span<const ThermalJob> jobs,
                 std::span<ThermalRunResult> results) const;

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
