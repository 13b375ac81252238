#include "support/reference_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "power/power_map.hpp"
#include "util/check.hpp"

namespace renoc {

ReferenceThermalRuntime::ReferenceThermalRuntime(const RcNetwork& net,
                                                 ThermalRunOptions options)
    : net_(&net), options_(options) {
  options_.validate();
}

int ReferenceThermalRuntime::steps_per_period() const {
  return std::max(
      1, static_cast<int>(std::ceil(options_.period_s / options_.dt_s)));
}

ThermalRunResult ReferenceThermalRuntime::run(
    const std::vector<double>& base_power,
    const std::vector<std::vector<int>>& orbit,
    const std::vector<std::vector<double>>& migration_energy) const {
  const RcNetwork& net = *net_;
  RENOC_CHECK(static_cast<int>(base_power.size()) == net.die_count());
  RENOC_CHECK(!orbit.empty());
  const std::size_t L = orbit.size();
  RENOC_CHECK_MSG(migration_energy.empty() || migration_energy.size() == L,
                  "need one migration-energy map per orbit step");

  // Per-segment power maps.
  std::vector<std::vector<double>> segment_power;
  segment_power.reserve(L);
  for (const auto& perm : orbit)
    segment_power.push_back(apply_permutation(base_power, perm));

  // Orbit-averaged map including amortized migration energy.
  std::vector<double> avg = average_maps(segment_power);
  if (!migration_energy.empty()) {
    for (const auto& e_map : migration_energy) {
      RENOC_CHECK(e_map.size() == base_power.size());
      for (std::size_t i = 0; i < avg.size(); ++i)
        avg[i] += e_map[i] / (options_.period_s * static_cast<double>(L));
    }
  }

  if (!steady_) steady_ = std::make_unique<SteadyStateSolver>(net);
  const std::vector<double> steady_rise = steady_->solve_die_power(avg);

  ThermalRunResult result;
  result.steady_peak_of_avg_c =
      net.ambient() + net.peak_die_rise(steady_rise);

  // Static case: a single identity segment with no migration energy is in
  // steady state already.
  const bool is_static = (L == 1) && migration_energy.empty();
  if (is_static) {
    const std::vector<double> rise =
        steady_->solve_die_power(segment_power[0]);
    result.peak_temp_c = net.ambient() + net.peak_die_rise(rise);
    result.mean_temp_c = net.ambient() + net.mean_die_rise(rise);
    result.ripple_c = 0.0;
    result.orbits_run = 0;
    result.converged = true;
    return result;
  }

  // Snap dt so an integer number of steps covers one period. Both the step
  // count and dt are fixed by options_, so the factorization is reused
  // across run() calls; only the state is re-seeded.
  const int steps = steps_per_period();
  const double dt = options_.period_s / steps;
  if (!transient_) transient_ = std::make_unique<TransientSolver>(net, dt);
  TransientSolver& transient = *transient_;
  transient.set_state(steady_rise);

  // Pre-expand each segment's die power to a full-node vector once, and
  // pre-fold the migration spike (energy / dt extra watts for the first
  // step of the segment) into its own full vector — the hot loop below
  // then never allocates or re-expands.
  std::vector<std::vector<double>> segment_full(L);
  std::vector<std::vector<double>> spiked_full;
  if (!migration_energy.empty())
    spiked_full.resize(L);
  for (std::size_t seg = 0; seg < L; ++seg) {
    segment_full[seg] = net.expand_die_power(segment_power[seg]);
    if (!migration_energy.empty()) {
      const auto& e_map = migration_energy[seg];
      spiked_full[seg] = segment_full[seg];
      for (std::size_t i = 0; i < e_map.size(); ++i)
        spiked_full[seg][i] += e_map[i] / dt;
    }
  }

  double prev_orbit_peak = result.steady_peak_of_avg_c;
  double mean_accum = 0.0;
  std::uint64_t mean_samples = 0;

  for (int orbit_idx = 0; orbit_idx < options_.max_orbits; ++orbit_idx) {
    double orbit_peak = -1e300;
    double peak_node_min = 1e300;  // min over time of the instantaneous peak
    for (std::size_t seg = 0; seg < L; ++seg) {
      for (int step = 0; step < steps; ++step) {
        const bool spike = step == 0 && !spiked_full.empty();
        transient.step(spike ? spiked_full[seg] : segment_full[seg]);
        const double peak_rise = net.peak_die_rise(transient.state());
        orbit_peak = std::max(orbit_peak, net.ambient() + peak_rise);
        peak_node_min =
            std::min(peak_node_min, net.ambient() + peak_rise);
        mean_accum += net.ambient() + net.mean_die_rise(transient.state());
        ++mean_samples;
      }
    }
    result.orbits_run = orbit_idx + 1;
    result.peak_temp_c = orbit_peak;
    result.ripple_c = orbit_peak - peak_node_min;
    if (orbit_idx + 1 >= options_.min_orbits &&
        std::fabs(orbit_peak - prev_orbit_peak) < options_.tol_c) {
      result.converged = true;
      break;
    }
    prev_orbit_peak = orbit_peak;
  }
  result.mean_temp_c =
      mean_samples ? mean_accum / static_cast<double>(mean_samples) : 0.0;
  return result;
}

}  // namespace renoc
