// Seed semantics oracle for the migration thermal co-simulation.
//
// This is the scalar per-step orbit integration exactly as it stood before
// the streamed co-sim engine landed in core/thermal_runtime: per-run
// vector construction, TransientSolver::step per time step, and separate
// peak/mean scans through the RcNetwork helpers. It is kept verbatim —
// like the other oracles in tests/support — as the semantics oracle the
// engine must agree with (<= 1e-10 on every ThermalRunResult field, exact
// on the integer/bool fields; tests/thermal_runtime_test pins this).
//
// Do not optimize this file; that is the engine's job.
#pragma once

#include <memory>
#include <vector>

#include "core/thermal_runtime.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace renoc {

/// The pre-engine MigrationThermalRuntime. Same inputs, options, and
/// result contract as MigrationThermalRuntime::run.
class ReferenceThermalRuntime {
 public:
  ReferenceThermalRuntime(const RcNetwork& net, ThermalRunOptions options);

  ThermalRunResult run(
      const std::vector<double>& base_power,
      const std::vector<std::vector<int>>& orbit,
      const std::vector<std::vector<double>>& migration_energy) const;

  const RcNetwork& network() const { return *net_; }

 private:
  int steps_per_period() const;

  const RcNetwork* net_;
  ThermalRunOptions options_;
  mutable std::unique_ptr<SteadyStateSolver> steady_;
  mutable std::unique_ptr<TransientSolver> transient_;
};

}  // namespace renoc
