#include "core/experiment.hpp"

#include <cmath>

#include "core/migration_controller.hpp"
#include "ldpc/noc_decoder.hpp"
#include "power/power_map.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {

ExperimentDriver::ExperimentDriver(const ChipConfig& cfg) : cfg_(cfg) {}
ExperimentDriver::~ExperimentDriver() = default;

double ExperimentDriver::block_seconds() const {
  return static_cast<double>(block_cycles_) / cfg_.noc.clock_hz;
}

double ExperimentDriver::total_power_w() const {
  return total_power(base_power_);
}

double ExperimentDriver::default_period_s() const {
  RENOC_CHECK(prepared_);
  const double target = 109.3e-6;
  const double blocks =
      std::max(1.0, std::round(target / block_seconds()));
  return blocks * block_seconds();
}

std::vector<double> ExperimentDriver::measure_power_map(
    const std::vector<int>& placement, int blocks, double scale) {
  Fabric fabric(cfg_.noc);
  NocLdpcDecoder decoder(fabric, built_->code, built_->partition, placement,
                         cfg_.ldpc_params);
  fabric.stats().clear();
  const Cycle start = fabric.now();
  Cycle cycles_per_block = 0;
  for (int b = 0; b < blocks; ++b) {
    const NocDecodeResult res = decoder.decode_block(built_->channel_llrs);
    cycles_per_block = res.cycles;
  }
  block_cycles_ = cycles_per_block;
  const double window =
      static_cast<double>(fabric.now() - start) / cfg_.noc.clock_hz;
  const EnergyModel energy(cfg_.energy);
  return energy.power_map(fabric.stats(), window, scale);
}

void ExperimentDriver::prepare(int measure_blocks) {
  RENOC_CHECK(measure_blocks >= 1);
  // Re-preparing rebuilds the network and recalibrates, so every cached
  // runtime (which points at the old RcNetwork) and migration measurement
  // (scaled by the old calibration) must go first.
  runtime_cache_.clear();
  migration_cache_.clear();
  built_ = std::make_unique<BuiltChip>(build_chip(cfg_));
  net_ = std::make_unique<RcNetwork>(
      build_rc_network(built_->floorplan, cfg_.hotspot));
  steady_ = std::make_unique<SteadyStateSolver>(*net_);
  SteadyStateSolver& steady = *steady_;

  // --- Thermally-aware placement over design-time compute power --------
  ThermalAwarePlacer placer(steady, cfg_.dim, cfg_.placer);
  const PlacementResult placed =
      placer.place(built_->compute_power_estimate, built_->traffic,
                   cfg_.workload.pins);
  placement_ = placed.placement;
  identity_peak_c_ = placer.peak_temperature_of(
      identity_permutation(cfg_.dim.node_count()),
      built_->compute_power_estimate);

  // --- Cycle-accurate measurement at the chosen placement --------------
  const std::vector<double> raw =
      measure_power_map(placement_, measure_blocks, 1.0);

  // --- Calibration: scale so the steady peak equals the paper ----------
  steady.solve_die_power_into(raw, rise_scratch_);
  const double peak_rise = net_->peak_die_rise(rise_scratch_);
  RENOC_CHECK_MSG(peak_rise > 0, "non-positive peak rise — no power?");
  calibration_scale_ =
      (cfg_.paper_base_peak_c - cfg_.hotspot.ambient) / peak_rise;
  base_power_ = raw;
  scale_map(base_power_, calibration_scale_);

  steady.solve_die_power_into(base_power_, rise_scratch_);
  base_peak_temp_c_ = net_->ambient() + net_->peak_die_rise(rise_scratch_);
  base_mean_temp_c_ = net_->ambient() + net_->mean_die_rise(rise_scratch_);
  prepared_ = true;
}

std::vector<double> ExperimentDriver::baseline_die_temps() const {
  RENOC_CHECK(prepared_);
  steady_->solve_die_power_into(base_power_, rise_scratch_);
  std::vector<double> temps(static_cast<std::size_t>(net_->die_count()));
  for (int i = 0; i < net_->die_count(); ++i)
    temps[static_cast<std::size_t>(i)] =
        net_->ambient() + rise_scratch_[static_cast<std::size_t>(i)];
  return temps;
}

MigrationThermalRuntime& ExperimentDriver::runtime_for(double period_s) {
  auto it = runtime_cache_.find(period_s);
  if (it == runtime_cache_.end()) {
    ThermalRunOptions topt;
    topt.period_s = period_s;
    it = runtime_cache_
             .emplace(period_s,
                      std::make_unique<MigrationThermalRuntime>(*net_, topt))
             .first;
  }
  return *it->second;
}

const ExperimentDriver::MigrationMeasurement&
ExperimentDriver::measure_migration(MigrationScheme scheme) {
  const auto cached = migration_cache_.find(scheme);
  if (cached != migration_cache_.end()) return cached->second;

  const Transform transform = transform_of(scheme);
  MigrationMeasurement m;
  m.orbit = orbit_permutations(transform, cfg_.dim);
  const std::size_t L = m.orbit.size();

  // --- Simulate the real migrations to get timing and energy -----------
  // A fresh fabric carries only migration traffic; per-step stats deltas
  // become per-step energy maps (calibrated like the workload power).
  // Everything below depends only on the scheme (never on the migration
  // period), which is what makes this cacheable across a period sweep.
  Fabric fabric(cfg_.noc);
  NocLdpcDecoder decoder(fabric, built_->code, built_->partition, placement_,
                         cfg_.ldpc_params);
  std::vector<int> state_words(
      static_cast<std::size_t>(decoder.cluster_count()));
  for (int c = 0; c < decoder.cluster_count(); ++c)
    state_words[static_cast<std::size_t>(c)] =
        decoder.migration_state_words(c);

  MigrationController controller(fabric, transform);
  const EnergyModel energy(cfg_.energy);
  std::vector<int> placement = placement_;

  // measured_step[k]: energy map + timing of the migration taking the
  // system from orbit[k] to orbit[k+1 mod L].
  std::vector<std::vector<double>> step_energy(L);
  double halt_seconds_sum = 0.0;
  double energy_sum = 0.0;
  for (std::size_t k = 0; k < L; ++k) {
    fabric.stats().clear();
    const MigrationReport rep = controller.migrate(placement, state_words);
    // Energy of this migration event per tile: dynamic events only (the
    // spike adds to the leakage already inside the base map), calibrated.
    std::vector<double> e_map(
        static_cast<std::size_t>(fabric.node_count()));
    for (int t = 0; t < fabric.node_count(); ++t)
      e_map[static_cast<std::size_t>(t)] =
          calibration_scale_ *
          energy.tile_dynamic_energy(fabric.stats().tile(t));
    energy_sum += total_power(e_map);  // joules (map holds J here)
    step_energy[k] = std::move(e_map);
    halt_seconds_sum +=
        static_cast<double>(rep.total_cycles) / cfg_.noc.clock_hz;
    if (k == 0) {
      m.phases = rep.phases;
      m.state_flits = rep.state_flits;
    }
  }
  // Orbit closure: after L migrations the placement must return home.
  RENOC_CHECK_MSG(placement == placement_,
                  "orbit did not close after L migrations");

  m.halt_mean_s = halt_seconds_sum / static_cast<double>(L);
  m.energy_mean_j = energy_sum / static_cast<double>(L);

  // Segment seg runs under orbit[seg]; the migration that starts segment
  // seg is measured step (seg-1+L) mod L.
  m.migration_energy.resize(L);
  for (std::size_t seg = 0; seg < L; ++seg)
    m.migration_energy[seg] = step_energy[(seg + L - 1) % L];

  return migration_cache_.emplace(scheme, std::move(m)).first->second;
}

const std::vector<double>& ExperimentDriver::migration_energy_map(
    MigrationScheme scheme) {
  RENOC_CHECK_MSG(prepared_, "call prepare() first");
  RENOC_CHECK_MSG(scheme != MigrationScheme::kNone,
                  "kNone has no migration energy");
  const MigrationMeasurement& m = measure_migration(scheme);
  // The first measured step (baseline -> orbit[1]) lands, after the
  // segment rotation above, at migration_energy[1 % L].
  return m.migration_energy[1 % m.migration_energy.size()];
}

SchemeEvaluation ExperimentDriver::evaluate_scheme(
    MigrationScheme scheme, std::optional<double> period_opt) {
  RENOC_CHECK_MSG(prepared_, "call prepare() first");
  SchemeEvaluation eval;
  evaluate_period({&scheme, 1}, period_opt.value_or(default_period_s()),
                  {&eval, 1});
  return eval;
}

void ExperimentDriver::evaluate_period(
    std::span<const MigrationScheme> schemes, double period_s,
    std::span<SchemeEvaluation> out) {
  RENOC_CHECK_MSG(prepared_, "call prepare() first");
  RENOC_CHECK_MSG(std::isfinite(period_s) && period_s > 0,
                  "migration period must be finite and positive, got "
                      << period_s << " s");
  MigrationThermalRuntime& runtime = runtime_for(period_s);

  // kNone's single identity segment takes the runtime's static shortcut.
  const std::vector<std::vector<int>> static_orbit{
      identity_permutation(cfg_.dim.node_count())};
  std::vector<ThermalJob> jobs(schemes.size());
  std::vector<ThermalRunResult> results(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    SchemeEvaluation& eval = out[i];
    eval = SchemeEvaluation{};
    eval.scheme = schemes[i];
    eval.period_s = period_s;
    if (schemes[i] == MigrationScheme::kNone) {
      jobs[i].orbit = &static_orbit;
      eval.orbit_length = 1;
      continue;
    }
    const MigrationMeasurement& m = measure_migration(schemes[i]);
    jobs[i] = ThermalJob{&m.orbit, &m.migration_energy};
    eval.orbit_length = static_cast<int>(m.orbit.size());
    eval.phases = m.phases;
    eval.state_flits = m.state_flits;
    eval.migration_s = m.halt_mean_s;
    eval.migration_energy_j = m.energy_mean_j;
    eval.throughput_penalty =
        eval.migration_s / (period_s + eval.migration_s);
  }

  // --- Thermal co-simulation: every scheme in one lockstep batch --------
  runtime.run_batch(base_power_, jobs, results);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    SchemeEvaluation& eval = out[i];
    const ThermalRunResult& r = results[i];
    eval.peak_temp_c = r.peak_temp_c;
    eval.mean_temp_c = r.mean_temp_c;
    eval.thermal_converged = r.converged;
    if (schemes[i] == MigrationScheme::kNone) continue;
    eval.reduction_c = base_peak_temp_c_ - r.peak_temp_c;
    eval.ripple_c = r.ripple_c;
  }
}

std::vector<SchemeEvaluation> ExperimentDriver::scheme_study(
    const std::vector<MigrationScheme>& schemes,
    const std::vector<double>& periods) {
  RENOC_CHECK_MSG(prepared_, "call prepare() first");
  RENOC_CHECK_MSG(!schemes.empty(), "scheme study needs at least one scheme");
  std::vector<double> study_periods = periods;
  if (study_periods.empty()) study_periods.push_back(default_period_s());

  // One lockstep batch per period, stored scheme-major.
  const std::size_t np = study_periods.size();
  std::vector<SchemeEvaluation> evals(schemes.size() * np);
  std::vector<SchemeEvaluation> at_period(schemes.size());
  for (std::size_t p = 0; p < np; ++p) {
    evaluate_period(schemes, study_periods[p], at_period);
    for (std::size_t s = 0; s < schemes.size(); ++s)
      evals[s * np + p] = at_period[s];
  }
  return evals;
}

}  // namespace renoc
