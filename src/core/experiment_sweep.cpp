#include "core/experiment_sweep.hpp"

#include <cstddef>

#include "floorplan/floorplan.hpp"
#include "thermal/grid_refine.hpp"
#include "util/check.hpp"
#include "util/sweep.hpp"

namespace renoc {
namespace {

/// Lifts a tile-level permutation to the refine-subdivided fine grid:
/// every sub-block moves with its tile, keeping its intra-tile offset
/// (refine_power spreads tile power uniformly, so the lifted permutation
/// commutes with refinement).
std::vector<int> lift_permutation(const std::vector<int>& tile_perm,
                                  const GridDim& dim, int refine) {
  const GridDim fine{dim.width * refine, dim.height * refine};
  std::vector<int> out(static_cast<std::size_t>(fine.node_count()));
  for (int ty = 0; ty < dim.height; ++ty)
    for (int tx = 0; tx < dim.width; ++tx) {
      const int src = ty * dim.width + tx;
      const int dst = tile_perm[static_cast<std::size_t>(src)];
      const int dx = dst % dim.width;
      const int dy = dst / dim.width;
      for (int sy = 0; sy < refine; ++sy)
        for (int sx = 0; sx < refine; ++sx) {
          const int fine_src =
              (ty * refine + sy) * fine.width + tx * refine + sx;
          const int fine_dst =
              (dy * refine + sy) * fine.width + dx * refine + sx;
          out[static_cast<std::size_t>(fine_src)] = fine_dst;
        }
    }
  return out;
}

}  // namespace

void ExperimentSweepConfig::validate() const {
  RENOC_CHECK_MSG(dim.width >= 1 && dim.height >= 1, "bad tile grid");
  hotspot.validate();
  // Axis checks come from util/sweep so every sweep fails with the same
  // pinned messages (sweep_test asserts on them).
  sweep::require_axis(!schemes.empty(), "scheme");
  sweep::require_axis(!periods_s.empty(), "period");
  sweep::require_axis(!refines.empty(), "refinement");
  for (const MigrationScheme s : schemes)
    if (s == MigrationScheme::kRotation)
      RENOC_CHECK_MSG(dim.width == dim.height,
                      "rotation is not closed on a non-square mesh");
  for (const double p : periods_s) {
    ThermalRunOptions topt;
    topt.period_s = p;
    topt.validate();  // also catches dt_s > period
  }
  for (const int r : refines)
    RENOC_CHECK_MSG(r >= 1, "refinement must be >= 1, got " << r);
  RENOC_CHECK_MSG(
      static_cast<int>(base_tile_power.size()) == dim.node_count(),
      "base power map must have one entry per tile");
  for (const double w : base_tile_power)
    RENOC_CHECK_MSG(w >= 0, "base tile power must be non-negative");
}

std::vector<ExperimentScenario> ExperimentSweepConfig::scenarios() const {
  std::vector<ExperimentScenario> out;
  out.reserve(schemes.size() * periods_s.size() * refines.size());
  for (const MigrationScheme scheme : schemes)
    for (const double period : periods_s)
      for (const int refine : refines)
        out.push_back(ExperimentScenario{scheme, period, refine});
  return out;
}

std::vector<ExperimentSweepPoint> run_experiment_sweep(
    const ExperimentSweepConfig& cfg) {
  cfg.validate();
  const std::vector<ExperimentScenario> grid = cfg.scenarios();
  std::vector<ExperimentSweepPoint> out(grid.size());
  const std::size_t n_schemes = cfg.schemes.size();
  const std::size_t n_periods = cfg.periods_s.size();
  const std::size_t n_refines = cfg.refines.size();

  // Tile-level orbits (kNone's is {identity}).
  std::vector<std::vector<std::vector<int>>> tile_orbits;
  for (const MigrationScheme scheme : cfg.schemes)
    tile_orbits.push_back(orbit_permutations(transform_of(scheme), cfg.dim));

  for (std::size_t r = 0; r < n_refines; ++r) {
    const int refine = cfg.refines[r];
    const RefinedThermalModel model(cfg.dim, date05_tile_area(), cfg.hotspot,
                                    refine);
    const std::vector<double> fine_power =
        model.refine_power(cfg.base_tile_power);
    const int fine_nodes = model.fine_dim().node_count();

    // Job 0 is the static baseline; job s + 1 is scheme s, its orbit
    // lifted to the refined grid.
    std::vector<std::vector<std::vector<int>>> orbits(n_schemes + 1);
    orbits[0] = {identity_permutation(fine_nodes)};
    for (std::size_t s = 0; s < n_schemes; ++s)
      for (const auto& perm : tile_orbits[s])
        orbits[s + 1].push_back(lift_permutation(perm, cfg.dim, refine));
    std::vector<ThermalJob> jobs(orbits.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
      jobs[j] = ThermalJob{&orbits[j], nullptr};
    std::vector<ThermalRunResult> results(jobs.size());

    for (std::size_t p = 0; p < n_periods; ++p) {
      ThermalRunOptions topt;
      topt.period_s = cfg.periods_s[p];
      const MigrationThermalRuntime runtime(model.network(), topt);
      runtime.run_batch(fine_power, jobs, results);
      const double static_peak_c = results[0].peak_temp_c;
      for (std::size_t s = 0; s < n_schemes; ++s) {
        const std::size_t i = (s * n_periods + p) * n_refines + r;
        const ThermalRunResult& res = results[s + 1];
        ExperimentSweepPoint& point = out[i];
        point.scenario = grid[i];
        point.orbit_length = static_cast<int>(orbits[s + 1].size());
        point.fine_nodes = fine_nodes;
        point.static_peak_c = static_peak_c;
        point.peak_temp_c = res.peak_temp_c;
        point.reduction_c = static_peak_c - res.peak_temp_c;
        point.mean_temp_c = res.mean_temp_c;
        point.ripple_c = res.ripple_c;
        point.steady_peak_of_avg_c = res.steady_peak_of_avg_c;
        point.orbits_run = res.orbits_run;
        point.converged = res.converged;
      }
    }
  }
  return out;
}

}  // namespace renoc
