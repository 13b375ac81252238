// End-to-end experiment driver: the full DATE'05 measurement pipeline.
//
//   build chip -> thermally-aware placement -> cycle-accurate decode ->
//   activity -> power map -> calibrate to the paper's base temperature ->
//   per-scheme: simulate the migration orbit on the fabric (timing +
//   energy maps) -> periodic thermal co-simulation -> peak reduction &
//   throughput penalty.
//
// Every number in Figure 1 and the period-sweep discussion of Section 3 is
// produced by this class; renoc_paper only formats its output.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/chip_config.hpp"
#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "thermal/rc_network.hpp"

namespace renoc {

/// Result of evaluating one migration scheme at one period.
struct SchemeEvaluation {
  MigrationScheme scheme = MigrationScheme::kNone;
  double period_s = 0.0;
  int orbit_length = 0;
  double peak_temp_c = 0.0;
  double reduction_c = 0.0;      ///< baseline peak - migrating peak
  double mean_temp_c = 0.0;
  double ripple_c = 0.0;
  double migration_s = 0.0;      ///< halt time per migration (mean)
  double throughput_penalty = 0.0;  ///< halt / (period + halt)
  int phases = 0;                ///< per migration (first step)
  std::uint64_t state_flits = 0;  ///< per migration (first step)
  double migration_energy_j = 0.0;  ///< per migration (mean, calibrated)
  bool thermal_converged = false;
};

class ExperimentDriver {
 public:
  explicit ExperimentDriver(const ChipConfig& cfg);
  ~ExperimentDriver();

  /// Runs placement, measures the baseline power map over `measure_blocks`
  /// decoded blocks, and calibrates the power scale to the paper's base
  /// peak temperature. Must be called before evaluate_scheme().
  void prepare(int measure_blocks = 2);

  // --- Baseline quantities (valid after prepare) ------------------------
  const BuiltChip& chip() const { return *built_; }
  const std::vector<int>& baseline_placement() const { return placement_; }
  const std::vector<double>& base_power() const { return base_power_; }
  double base_peak_temp_c() const { return base_peak_temp_c_; }
  double base_mean_temp_c() const { return base_mean_temp_c_; }
  Cycle block_cycles() const { return block_cycles_; }
  double block_seconds() const;
  double calibration_scale() const { return calibration_scale_; }
  double total_power_w() const;
  const RcNetwork& thermal_network() const { return *net_; }

  /// Peak-temperature of the identity placement (before thermally-aware
  /// placement), for quantifying what the static optimization bought.
  double identity_placement_peak_c() const { return identity_peak_c_; }

  /// Evaluates one scheme at a migration period. If `period_s` is not
  /// given, the period snaps to the paper's 109.3 us rounded to a whole
  /// number of decoded blocks (the paper aligns migrations with block
  /// completion).
  ///
  /// The expensive per-scheme construction — the cycle-accurate migration
  /// simulation yielding the orbit's timing and per-step energy maps,
  /// which depends only on the scheme — and the per-period thermal
  /// runtime (factorizations) are cached across calls, so sweeping one
  /// scheme over many periods re-simulates nothing and re-factors once
  /// per distinct period. Cached and fresh evaluations are identical:
  /// both simulations are deterministic.
  SchemeEvaluation evaluate_scheme(MigrationScheme scheme,
                                   std::optional<double> period_s = {});

  /// The full scheme x period study grid: one evaluation per (scheme,
  /// period) pair, scheme-major, sharing the caches above. Periods may be
  /// empty to mean {default_period_s()}. At each period every scheme's
  /// co-simulation runs in one lockstep MigrationThermalRuntime::run_batch
  /// call; each evaluation equals evaluate_scheme() of its cell bit for
  /// bit.
  std::vector<SchemeEvaluation> scheme_study(
      const std::vector<MigrationScheme>& schemes,
      const std::vector<double>& periods = {});

  /// The paper-aligned default period (whole blocks closest to 109.3 us).
  double default_period_s() const;

  /// Per-tile joules deposited by one migration of `scheme`, measured on
  /// the real fabric from the baseline placement (the orbit's first
  /// migration), calibrated like the workload power. Shares
  /// evaluate_scheme's per-scheme cache, so a scheme already evaluated
  /// costs nothing extra. `scheme` must not be kNone. The reference stays
  /// valid until the next prepare().
  const std::vector<double>& migration_energy_map(MigrationScheme scheme);

  /// Per-tile die temperatures (C) for the baseline placement.
  std::vector<double> baseline_die_temps() const;

 private:
  std::vector<double> measure_power_map(const std::vector<int>& placement,
                                        int blocks, double scale);

  /// Everything evaluate_scheme needs that depends only on the scheme:
  /// the orbit, the measured per-segment migration-energy maps (already
  /// rotated into "energy deposited at the start of segment seg" form),
  /// and the timing/traffic summary of the first migration.
  struct MigrationMeasurement {
    std::vector<std::vector<int>> orbit;
    std::vector<std::vector<double>> migration_energy;
    double halt_mean_s = 0.0;
    double energy_mean_j = 0.0;
    int phases = 0;
    std::uint64_t state_flits = 0;
  };
  const MigrationMeasurement& measure_migration(MigrationScheme scheme);
  /// Evaluates every scheme at one period into out[i] (sizes match): one
  /// lockstep co-simulation batch. evaluate_scheme is a batch of one.
  void evaluate_period(std::span<const MigrationScheme> schemes,
                       double period_s, std::span<SchemeEvaluation> out);
  MigrationThermalRuntime& runtime_for(double period_s);

  ChipConfig cfg_;
  std::unique_ptr<BuiltChip> built_;
  std::unique_ptr<RcNetwork> net_;
  std::unique_ptr<SteadyStateSolver> steady_;  // factored once in prepare()
  std::vector<int> placement_;
  std::vector<double> base_power_;
  mutable std::vector<double> rise_scratch_;  // steady-solve workspace
  std::map<MigrationScheme, MigrationMeasurement> migration_cache_;
  std::map<double, std::unique_ptr<MigrationThermalRuntime>> runtime_cache_;
  double base_peak_temp_c_ = 0.0;
  double base_mean_temp_c_ = 0.0;
  double identity_peak_c_ = 0.0;
  Cycle block_cycles_ = 0;
  double calibration_scale_ = 1.0;
  bool prepared_ = false;
};

}  // namespace renoc
