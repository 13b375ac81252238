// Thermal solvers over an RcNetwork.
//
// SteadyStateSolver:  G * T = P          (one factorization, many solves)
// TransientSolver:    C dT/dt = P - G T  via backward Euler,
//                     (C/dt + G) T_{k+1} = C/dt * T_k + P_{k+1}
//
// Backward Euler is unconditionally stable, which matters here: the network
// couples die nodes with ~1 ms time constants to a convection node with a
// ~14 s time constant, i.e. the ODE is stiff, and an explicit method at the
// microsecond steps the migration study needs would be dominated by
// stability, not accuracy. The step matrix is factored once per dt.
//
// Both G and (C/dt + G) are symmetric positive definite, so both solvers
// factor them with the sparse LDL^T of util/sparse.hpp — O(n * b^2) factor
// and O(nnz(L)) solve. The tests check it against a dense LU oracle
// (tests/support) on every network size the paper configurations build.
//
// TransientSolver advances one trajectory at a time: AdaptivePolicy's
// lookahead and the DTM controllers step through it. The migration
// co-simulation (core/thermal_runtime) integrates through its own fused
// kernel, SparseLdlt::step_permuted.
#pragma once

#include <vector>

#include "thermal/rc_network.hpp"
#include "util/sparse.hpp"

namespace renoc {

/// The diagonal C/dt of the backward-Euler step matrix for time step `dt`.
/// Shared with the co-sim engine so both paths assemble bit-identical
/// step matrices (the engine's reference-agreement contract depends on
/// that).
std::vector<double> step_capacitance_diagonal(const RcNetwork& net,
                                              double dt);

/// Direct solver for steady-state temperature rises.
class SteadyStateSolver {
 public:
  explicit SteadyStateSolver(const RcNetwork& net);

  /// Full-node temperature rises for a full-node power vector.
  std::vector<double> solve(const std::vector<double>& power) const;

  /// solve() into a caller-provided buffer: `rise` is resized to the node
  /// count and overwritten, so a reused buffer makes repeated solves
  /// allocation-free. Results are bit-identical to solve().
  void solve_into(const std::vector<double>& power,
                  std::vector<double>& rise) const;

  /// Convenience: per-die-block power in, full-node rises out.
  std::vector<double> solve_die_power(
      const std::vector<double>& die_power) const;

  /// solve_die_power() into a caller-provided buffer (see solve_into).
  void solve_die_power_into(const std::vector<double>& die_power,
                            std::vector<double>& rise) const;

  /// Peak absolute die temperature (ambient + peak rise) for a die power map.
  /// Solves into solver-owned scratch, so a warmed call is allocation-free.
  double peak_die_temperature(const std::vector<double>& die_power) const;

  const RcNetwork& network() const { return *net_; }

 private:
  const RcNetwork* net_;
  SparseLdlt ldlt_;  // LDL^T of G
  mutable std::vector<double> full_power_;  // die-power expansion scratch
  mutable std::vector<double> rise_;        // peak_die_temperature scratch
};

/// Fixed-step backward-Euler transient integrator.
class TransientSolver {
 public:
  /// Prefactors (C/dt + G) for time step `dt` (seconds).
  TransientSolver(const RcNetwork& net, double dt);

  double dt() const { return dt_; }

  /// Sets the current temperature-rise state (full node vector).
  void set_state(std::vector<double> rise);

  /// Initializes the state to the steady state of `die_power`.
  void set_state_to_steady(const std::vector<double>& die_power);

  const std::vector<double>& state() const { return state_; }

  /// Advances one step under a full-node power vector.
  void step(const std::vector<double>& power);

  /// Advances one step under a per-die-block power vector.
  void step_die_power(const std::vector<double>& die_power);

  const RcNetwork& network() const { return *net_; }

 private:
  const RcNetwork* net_;
  double dt_;
  std::vector<double> c_over_dt_;  // diagonal C/dt
  SparseLdlt step_ldlt_;           // LDL^T of (C/dt + G)
  std::vector<double> state_;      // temperature rises
  std::vector<double> rhs_;        // scratch
  std::vector<double> full_power_;  // die-power expansion scratch
};

}  // namespace renoc
