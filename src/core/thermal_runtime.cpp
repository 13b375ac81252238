#include "core/thermal_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"
#include "util/sparse.hpp"

namespace renoc {

void ThermalRunOptions::validate() const {
  RENOC_CHECK(period_s > 0 && dt_s > 0);
  RENOC_CHECK(dt_s <= period_s);
  RENOC_CHECK(min_orbits >= 1 && max_orbits >= min_orbits);
  RENOC_CHECK(tol_c > 0);
}

namespace {

/// Minimum-degree LDL^T of the backward-Euler step matrix C/dt + G.
SparseLdlt factor_step(const RcNetwork& net,
                       const std::vector<double>& c_over_dt) {
  const SparseMatrix step = net.conductance_sparse().plus_diagonal(c_over_dt);
  return SparseLdlt(step, minimum_degree_ordering(step));
}

}  // namespace

// Streamed orbit-integration state: the factorization plus every buffer the
// hot loop touches, so a warmed engine runs without heap allocation. State,
// power maps, and C/dt all live in the factor's elimination order (slot k
// holds node ldlt.permutation()[k]), so SparseLdlt::solve_permuted_in_place
// needs no per-step permutation passes.
struct MigrationThermalRuntime::Engine {
  // `c_over_dt` comes from the shared assembly helper (thermal/solver.cpp
  // uses the same one), so the engine's step matrix is bit-identical to the
  // reference path's.
  Engine(const RcNetwork& net, const std::vector<double>& c_over_dt)
      : steady(net), ldlt(factor_step(net, c_over_dt)) {
    const int n = net.node_count();
    const std::vector<int>& order = ldlt.permutation();
    cd_ord.resize(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k)
      cd_ord[static_cast<std::size_t>(k)] =
          c_over_dt[static_cast<std::size_t>(order[static_cast<std::size_t>(
              k)])];
    for (int k = 0; k < n; ++k)
      if (order[static_cast<std::size_t>(k)] < net.die_count())
        die_slot.push_back(k);
  }

  SteadyStateSolver steady;
  SparseLdlt ldlt;             // minimum-degree (C/dt + G)
  std::vector<double> cd_ord;  // C/dt in slot order
  std::vector<int> die_slot;  // slots holding die nodes, ascending

  // Per-run workspaces (sized on first use, reused afterwards).
  std::vector<double> moved;        // one segment's permuted die map
  std::vector<double> avg;          // orbit-averaged die map
  std::vector<double> steady_rise;  // steady state of avg (natural order)
  std::vector<double> static_rise;  // static-case solve (natural order)
  std::vector<double> seg_power;    // L x n segment powers, slot order
  std::vector<double> spike_power;  // L x n spiked powers, slot order
  std::vector<double> state;        // n, slot order
  std::vector<int> perm_seen;       // epoch marks for orbit validation
  int perm_epoch = 0;
};

MigrationThermalRuntime::MigrationThermalRuntime(const RcNetwork& net,
                                                 ThermalRunOptions options)
    : net_(&net), options_(options) {
  options_.validate();
}

MigrationThermalRuntime::~MigrationThermalRuntime() = default;

int MigrationThermalRuntime::steps_per_period() const {
  return std::max(
      1, static_cast<int>(std::ceil(options_.period_s / options_.dt_s)));
}

ThermalRunResult MigrationThermalRuntime::run(
    const std::vector<double>& base_power,
    const std::vector<std::vector<int>>& orbit,
    const std::vector<std::vector<double>>& migration_energy) const {
  const RcNetwork& net = *net_;
  RENOC_CHECK(static_cast<int>(base_power.size()) == net.die_count());
  RENOC_CHECK(!orbit.empty());
  const std::size_t L = orbit.size();
  RENOC_CHECK_MSG(migration_energy.empty() || migration_energy.size() == L,
                  "need one migration-energy map per orbit step");

  const int steps = steps_per_period();
  const double dt = options_.period_s / steps;
  if (!engine_)
    engine_ =
        std::make_unique<Engine>(net, step_capacitance_diagonal(net, dt));
  Engine& e = *engine_;
  // order[k] = original node streamed at slot k
  const std::vector<int>& order = e.ldlt.permutation();

  const int n = net.node_count();
  const int die = net.die_count();
  const auto un = static_cast<std::size_t>(n);
  const auto ud = static_cast<std::size_t>(die);

  // Segment power maps in slot order, plus the orbit average (same
  // element-wise sum/scale order as the reference path's average_maps).
  e.perm_seen.resize(ud, 0);
  e.moved.resize(ud);
  e.avg.assign(ud, 0.0);
  e.seg_power.resize(L * un);
  for (std::size_t seg = 0; seg < L; ++seg) {
    const std::vector<int>& perm = orbit[seg];
    RENOC_CHECK_MSG(perm.size() == ud,
                    "orbit permutation " << seg << " has size " << perm.size()
                                         << ", expected " << die);
    ++e.perm_epoch;
    for (std::size_t i = 0; i < ud; ++i) {
      const int p = perm[i];
      RENOC_CHECK_MSG(p >= 0 && p < die,
                      "permutation entry " << p << " out of range");
      RENOC_CHECK_MSG(e.perm_seen[static_cast<std::size_t>(p)] !=
                          e.perm_epoch,
                      "permutation repeats entry " << p);
      e.perm_seen[static_cast<std::size_t>(p)] = e.perm_epoch;
      e.moved[static_cast<std::size_t>(p)] = base_power[i];
    }
    for (std::size_t i = 0; i < ud; ++i) e.avg[i] += e.moved[i];
    double* sp = &e.seg_power[seg * un];
    for (std::size_t k = 0; k < un; ++k) {
      const int orig = order[k];
      sp[k] = orig < die ? e.moved[static_cast<std::size_t>(orig)] : 0.0;
    }
  }
  const double inv_l = 1.0 / static_cast<double>(L);
  for (std::size_t i = 0; i < ud; ++i) e.avg[i] *= inv_l;
  if (!migration_energy.empty()) {
    for (const auto& e_map : migration_energy) {
      RENOC_CHECK(e_map.size() == base_power.size());
      for (std::size_t i = 0; i < ud; ++i)
        e.avg[i] += e_map[i] / (options_.period_s * static_cast<double>(L));
    }
  }

  e.steady.solve_die_power_into(e.avg, e.steady_rise);

  ThermalRunResult result;
  result.steady_peak_of_avg_c =
      net.ambient() + net.peak_die_rise(e.steady_rise);

  // Static case: a single identity segment with no migration energy is in
  // steady state already (e.moved still holds segment 0's map here).
  const bool is_static = (L == 1) && migration_energy.empty();
  if (is_static) {
    e.steady.solve_die_power_into(e.moved, e.static_rise);
    result.peak_temp_c = net.ambient() + net.peak_die_rise(e.static_rise);
    result.mean_temp_c = net.ambient() + net.mean_die_rise(e.static_rise);
    result.ripple_c = 0.0;
    result.orbits_run = 0;
    result.converged = true;
    return result;
  }

  // Migration spikes: energy / dt extra watts on the first step of each
  // segment, pre-folded into slot-order power vectors.
  const bool spiked = !migration_energy.empty();
  if (spiked) {
    e.spike_power.resize(L * un);
    for (std::size_t seg = 0; seg < L; ++seg) {
      const std::vector<double>& e_map = migration_energy[seg];
      const double* sp = &e.seg_power[seg * un];
      double* spk = &e.spike_power[seg * un];
      for (std::size_t k = 0; k < un; ++k) {
        const int orig = order[k];
        spk[k] = orig < die
                     ? sp[k] + e_map[static_cast<std::size_t>(orig)] / dt
                     : sp[k];
      }
    }
  }

  // Seed the transient state from the averaged steady solution and stream
  // the backward-Euler orbit loop: fused RHS build, permutation-free
  // solve, and a single fused peak/mean gather over the die slots.
  e.state.resize(un);
  for (std::size_t k = 0; k < un; ++k)
    e.state[k] = e.steady_rise[static_cast<std::size_t>(order[k])];

  const double ambient = net.ambient();
  const double* cd = e.cd_ord.data();
  double prev_orbit_peak = result.steady_peak_of_avg_c;
  double mean_accum = 0.0;
  std::uint64_t mean_samples = 0;

  // renoc-hot-begin (orbit streaming loop: L segments x steps solves/orbit)
  for (int orbit_idx = 0; orbit_idx < options_.max_orbits; ++orbit_idx) {
    double orbit_peak = -1e300;
    double peak_node_min = 1e300;  // min over time of the instantaneous peak
    for (std::size_t seg = 0; seg < L; ++seg) {
      const double* seg_p = &e.seg_power[seg * un];
      const double* spike_p = spiked ? &e.spike_power[seg * un] : nullptr;
      for (int step = 0; step < steps; ++step) {
        const double* p = (step == 0 && spiked) ? spike_p : seg_p;
        double* st = e.state.data();
        // Fused in-place RHS build: each slot is read once and overwritten,
        // so the step needs no second n-vector in cache.
        for (std::size_t k = 0; k < un; ++k) st[k] = cd[k] * st[k] + p[k];
        e.ldlt.solve_permuted_in_place(st);
        double peak_rise = -1e300;
        double sum = 0.0;
        for (const int slot : e.die_slot) {
          const double v = st[slot];
          peak_rise = std::max(peak_rise, v);
          sum += v;
        }
        const double peak_abs = ambient + peak_rise;
        orbit_peak = std::max(orbit_peak, peak_abs);
        peak_node_min = std::min(peak_node_min, peak_abs);
        mean_accum += ambient + sum / die;
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
  // renoc-hot-end
  result.mean_temp_c =
      mean_samples ? mean_accum / static_cast<double>(mean_samples) : 0.0;
  return result;
}

}  // namespace renoc
