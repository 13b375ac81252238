#include "core/thermal_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"
#include "util/sparse.hpp"

namespace renoc {

void ThermalRunOptions::validate() const {
  RENOC_CHECK_MSG(std::isfinite(period_s) && std::isfinite(dt_s),
                  "thermal period " << period_s << " s and step " << dt_s
                                    << " s must be finite");
  RENOC_CHECK(period_s > 0 && dt_s > 0);
  RENOC_CHECK(dt_s <= period_s);
  // steps_per_period() casts this count to int.
  RENOC_CHECK_MSG(std::ceil(period_s / dt_s) <=
                      static_cast<double>(std::numeric_limits<int>::max()),
                  "period " << period_s << " s needs more than INT_MAX steps of "
                            << dt_s << " s");
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

bool has_energy(const ThermalJob& job) {
  return job.migration_energy != nullptr && !job.migration_energy->empty();
}

}  // namespace

// Lockstep orbit-integration state: the factorization plus every buffer the
// hot loop touches, so a warmed engine runs without heap allocation. States,
// power maps, and C/dt all live in the factor's elimination order (slot k
// holds node ldlt.permutation()[k]), so SparseLdlt::step_permuted needs no
// per-step permutation passes.
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

  /// One column of the lockstep block: a migrating job and its per-orbit
  /// bookkeeping (what a lone run keeps in locals).
  struct Lane {
    const ThermalJob* job = nullptr;
    ThermalRunResult* result = nullptr;
    std::size_t orbit_len = 0;
    bool spiked = false;
    std::size_t seg = 0;  // segment of its orbit being integrated
    int orbit_idx = 0;
    double prev_orbit_peak = 0.0;
    double orbit_peak = -1e300;
    double peak_node_min = 1e300;  // min over time of the instantaneous peak
    double mean_accum = 0.0;
    std::uint64_t mean_samples = 0;
    bool done = false;
  };

  SteadyStateSolver steady;
  SparseLdlt ldlt;             // minimum-degree (C/dt + G)
  std::vector<double> cd_ord;  // C/dt in slot order
  std::vector<int> die_slot;  // slots holding die nodes, ascending

  // Per-call workspaces (sized on first use, reused afterwards). The two
  // blocks are slot-major n x width: column c's slot k at [k * width + c].
  std::vector<double> moved;   // one segment's permuted die map
  std::vector<double> avg;     // orbit-averaged die map
  std::vector<double> rise;    // steady solve (natural order)
  std::vector<double> state;   // every live column's state
  std::vector<double> power;   // this step's power maps
  std::vector<double> peak_rise;  // per column, one step's gather
  std::vector<double> die_sum;    // per column, one step's gather
  std::vector<Lane> lanes;
  std::vector<int> perm_seen;  // epoch marks for orbit validation
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
  const ThermalJob job{&orbit, &migration_energy};
  ThermalRunResult result;
  run_batch(base_power, {&job, 1}, {&result, 1});
  return result;
}

void MigrationThermalRuntime::run_batch(
    const std::vector<double>& base_power, std::span<const ThermalJob> jobs,
    std::span<ThermalRunResult> results) const {
  const RcNetwork& net = *net_;
  RENOC_CHECK(static_cast<int>(base_power.size()) == net.die_count());
  RENOC_CHECK_MSG(results.size() == jobs.size(),
                  "need one result slot per job, got " << results.size()
                                                       << " for "
                                                       << jobs.size());

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
  const double ambient = net.ambient();

  // Static jobs (one segment, no migration energy) are in steady state
  // already; every other job is one column of the lockstep block.
  std::size_t width = 0;
  for (const ThermalJob& job : jobs) {
    RENOC_CHECK_MSG(job.orbit != nullptr, "a thermal job needs an orbit");
    if (job.orbit->size() != 1 || has_energy(job)) ++width;
  }
  e.state.resize(un * width);
  e.power.resize(un * width);
  e.peak_rise.resize(width);
  e.die_sum.resize(width);
  e.lanes.resize(width);
  e.perm_seen.resize(ud, 0);
  e.moved.resize(ud);

  std::size_t col = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ThermalJob& job = jobs[j];
    const std::vector<std::vector<int>>& orbit = *job.orbit;
    RENOC_CHECK(!orbit.empty());
    const std::size_t L = orbit.size();
    const bool spiked = has_energy(job);
    RENOC_CHECK_MSG(!spiked || job.migration_energy->size() == L,
                    "need one migration-energy map per orbit step");

    // Orbit average of the segment maps (same element-wise sum/scale order
    // as the reference path's average_maps); e.moved ends on the last
    // segment's map.
    e.avg.assign(ud, 0.0);
    for (std::size_t seg = 0; seg < L; ++seg) {
      const std::vector<int>& perm = orbit[seg];
      RENOC_CHECK_MSG(perm.size() == ud,
                      "orbit permutation " << seg << " has size "
                                           << perm.size() << ", expected "
                                           << die);
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
    }
    const double inv_l = 1.0 / static_cast<double>(L);
    for (std::size_t i = 0; i < ud; ++i) e.avg[i] *= inv_l;
    if (spiked) {
      for (const auto& e_map : *job.migration_energy) {
        RENOC_CHECK(e_map.size() == base_power.size());
        for (std::size_t i = 0; i < ud; ++i)
          e.avg[i] += e_map[i] / (options_.period_s * static_cast<double>(L));
      }
    }

    e.steady.solve_die_power_into(e.avg, e.rise);
    ThermalRunResult& result = results[j];
    result = ThermalRunResult{};
    result.steady_peak_of_avg_c = ambient + net.peak_die_rise(e.rise);

    // Static: one segment without migration energy is in steady state
    // already (e.moved holds that segment's map).
    if (L == 1 && !spiked) {
      e.steady.solve_die_power_into(e.moved, e.rise);
      result.peak_temp_c = ambient + net.peak_die_rise(e.rise);
      result.mean_temp_c = ambient + net.mean_die_rise(e.rise);
      result.converged = true;
      continue;
    }

    Engine::Lane& lane = e.lanes[col];
    lane = Engine::Lane{};
    lane.job = &job;
    lane.result = &result;
    lane.orbit_len = L;
    lane.spiked = spiked;
    lane.prev_orbit_peak = result.steady_peak_of_avg_c;
    // Seed the column from the averaged steady solution, still in e.rise.
    for (std::size_t k = 0; k < un; ++k)
      e.state[k * width + col] = e.rise[static_cast<std::size_t>(order[k])];
    ++col;
  }

  const double* cd = e.cd_ord.data();
  Engine::Lane* lanes = e.lanes.data();
  double* state = e.state.data();
  double* peak_rise = e.peak_rise.data();
  double* die_sum = e.die_sum.data();

  // renoc-hot-begin (lockstep orbit loop: one fused step per transient step)
  while (width > 0) {
    // Each column's power map in slot order. A segment's first step adds
    // its migration spike (energy / dt extra watts); the second rebuilds
    // the spiked columns without it, so one block serves both.
    for (int step = 0; step < steps; ++step) {
      if (step <= 1) {
        for (std::size_t c = 0; c < width; ++c) {
          const Engine::Lane& lane = lanes[c];
          if (step == 1 && !lane.spiked) continue;
          const std::vector<int>& perm = (*lane.job->orbit)[lane.seg];
          for (std::size_t i = 0; i < ud; ++i)
            e.moved[static_cast<std::size_t>(perm[i])] = base_power[i];
          const double* e_map =
              step == 0 && lane.spiked
                  ? (*lane.job->migration_energy)[lane.seg].data()
                  : nullptr;
          for (std::size_t k = 0; k < un; ++k) {
            const int orig = order[k];
            const double pk =
                orig < die ? e.moved[static_cast<std::size_t>(orig)] : 0.0;
            e.power[k * width + c] =
                e_map != nullptr && orig < die
                    ? pk + e_map[static_cast<std::size_t>(orig)] / dt
                    : pk;
          }
        }
      }
      e.ldlt.step_permuted(cd, e.power.data(), state,
                           static_cast<int>(width));
      // One peak/mean gather over the die slots for every column.
      for (std::size_t c = 0; c < width; ++c) {
        peak_rise[c] = -1e300;
        die_sum[c] = 0.0;
      }
      for (const int slot : e.die_slot) {
        const double* row = state + static_cast<std::size_t>(slot) * width;
        for (std::size_t c = 0; c < width; ++c) {
          peak_rise[c] = std::max(peak_rise[c], row[c]);
          die_sum[c] += row[c];
        }
      }
      for (std::size_t c = 0; c < width; ++c) {
        Engine::Lane& lane = lanes[c];
        const double peak_abs = ambient + peak_rise[c];
        lane.orbit_peak = std::max(lane.orbit_peak, peak_abs);
        lane.peak_node_min = std::min(lane.peak_node_min, peak_abs);
        lane.mean_accum += ambient + die_sum[c] / die;
        ++lane.mean_samples;
      }
    }

    // Segment end: close each finished orbit; a column that converged or
    // ran max_orbits writes its result and leaves the block.
    std::size_t live = 0;
    for (std::size_t c = 0; c < width; ++c) {
      Engine::Lane& lane = lanes[c];
      if (++lane.seg == lane.orbit_len) {
        ThermalRunResult& result = *lane.result;
        result.orbits_run = lane.orbit_idx + 1;
        result.peak_temp_c = lane.orbit_peak;
        result.ripple_c = lane.orbit_peak - lane.peak_node_min;
        if (lane.orbit_idx + 1 >= options_.min_orbits &&
            std::fabs(lane.orbit_peak - lane.prev_orbit_peak) <
                options_.tol_c) {
          result.converged = true;
          lane.done = true;
        } else {
          lane.prev_orbit_peak = lane.orbit_peak;
          lane.done = ++lane.orbit_idx == options_.max_orbits;
        }
        if (lane.done)
          result.mean_temp_c =
              lane.mean_accum / static_cast<double>(lane.mean_samples);
        lane.seg = 0;
        lane.orbit_peak = -1e300;
        lane.peak_node_min = 1e300;
      }
      if (!lane.done) ++live;
    }
    if (live == width) continue;
    // Compact in place: each kept value moves to an index no larger than
    // its own, and indices are visited in ascending order, so nothing is
    // overwritten before it is read.
    for (std::size_t k = 0; k < un; ++k) {
      std::size_t to = k * live;
      for (std::size_t c = 0; c < width; ++c)
        if (!lanes[c].done) state[to++] = state[k * width + c];
    }
    std::size_t to = 0;
    for (std::size_t c = 0; c < width; ++c)
      if (!lanes[c].done) lanes[to++] = lanes[c];
    width = live;
  }
  // renoc-hot-end
}

}  // namespace renoc
