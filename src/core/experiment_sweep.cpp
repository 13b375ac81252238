#include "core/experiment_sweep.hpp"

#include <memory>

#include "thermal/grid_refine.hpp"
#include "util/check.hpp"

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
  RENOC_CHECK_MSG(tile_area > 0, "tile area must be positive");
  hotspot.validate();
  // Axis and thread checks come from util/sweep so all three harnesses
  // fail with the same pinned messages (sweep_test asserts on them).
  sweep::require_axis(!schemes.empty(), "scheme");
  sweep::require_axis(!periods_s.empty(), "period");
  sweep::require_axis(!power_scales.empty(), "power scale");
  sweep::require_axis(!refines.empty(), "refinement");
  for (const MigrationScheme s : schemes)
    if (s == MigrationScheme::kRotation)
      RENOC_CHECK_MSG(dim.width == dim.height,
                      "rotation is not closed on a non-square mesh");
  for (const double p : periods_s) {
    ThermalRunOptions topt = thermal;
    topt.period_s = p;
    topt.validate();  // also catches dt_s > period
  }
  for (const double s : power_scales)
    RENOC_CHECK_MSG(s > 0, "power scale must be positive, got " << s);
  for (const int r : refines)
    RENOC_CHECK_MSG(r >= 1, "refinement must be >= 1, got " << r);
  RENOC_CHECK_MSG(base_tile_power.empty() ||
                      static_cast<int>(base_tile_power.size()) ==
                          dim.node_count(),
                  "base power map must have one entry per tile");
  for (const double w : base_tile_power)
    RENOC_CHECK_MSG(w >= 0, "base tile power must be non-negative");
  RENOC_CHECK_MSG(synthetic_tile_power_w > 0,
                  "synthetic tile power must be positive");
  RENOC_CHECK_MSG(power_jitter >= 0 && power_jitter < 1,
                  "power jitter must be in [0, 1), got " << power_jitter);
  RENOC_CHECK_MSG(migration_energy_j >= 0,
                  "migration energy must be non-negative");
  sweep::require_threads(threads);
}

std::vector<ExperimentScenario> ExperimentSweepConfig::scenarios() const {
  // Enumerate through the shared row-major index decoder (scheme-major,
  // refinement innermost — byte-identical to the nested loops this
  // replaced), so a scenario index means the same cell here, in the
  // service's shards, and in any replay.
  const std::vector<std::int64_t> shape = {
      static_cast<std::int64_t>(schemes.size()),
      static_cast<std::int64_t>(periods_s.size()),
      static_cast<std::int64_t>(power_scales.size()),
      static_cast<std::int64_t>(refines.size())};
  const std::int64_t total = sweep::axis_product(shape);
  std::vector<ExperimentScenario> out;
  out.reserve(static_cast<std::size_t>(total));
  std::vector<std::int64_t> d;
  for (std::int64_t i = 0; i < total; ++i) {
    sweep::decode_scenario_index(i, shape, d);
    ExperimentScenario sc;
    sc.scheme = schemes[static_cast<std::size_t>(d[0])];
    sc.period_s = periods_s[static_cast<std::size_t>(d[1])];
    sc.power_scale = power_scales[static_cast<std::size_t>(d[2])];
    sc.refine = refines[static_cast<std::size_t>(d[3])];
    out.push_back(sc);
  }
  return out;
}

std::vector<double> experiment_scenario_power(
    const ExperimentSweepConfig& cfg, const ExperimentScenario& scenario,
    int scenario_index) {
  const auto tiles = static_cast<std::size_t>(cfg.dim.node_count());
  std::vector<double> power(tiles, cfg.synthetic_tile_power_w);
  if (!cfg.base_tile_power.empty()) power = cfg.base_tile_power;
  Rng rng = sweep::scenario_rng(cfg.seed, scenario_index);
  for (std::size_t i = 0; i < tiles; ++i) {
    double factor = 1.0;
    if (cfg.power_jitter > 0)
      factor += cfg.power_jitter * (2.0 * rng.next_double() - 1.0);
    power[i] *= scenario.power_scale * factor;
  }
  return power;
}

ExperimentSweepPoint run_experiment_scenario(
    const ExperimentScenario& scenario, const ExperimentSweepConfig& cfg,
    int scenario_index) {
  ExperimentSweepPoint point;
  point.scenario = scenario;
  point.scenario_index = scenario_index;

  const std::vector<double> tile_power =
      experiment_scenario_power(cfg, scenario, scenario_index);

  const RefinedThermalModel model(cfg.dim, cfg.tile_area, cfg.hotspot,
                                  scenario.refine);
  const std::vector<double> fine_power = model.refine_power(tile_power);
  const int fine_nodes = model.fine_dim().node_count();
  point.fine_nodes = fine_nodes;

  // Tile-level orbit, lifted to the refined grid.
  std::vector<std::vector<int>> orbit;
  if (scenario.scheme == MigrationScheme::kNone) {
    orbit.push_back(identity_permutation(fine_nodes));
  } else {
    const auto tile_orbit =
        orbit_permutations(transform_of(scenario.scheme), cfg.dim);
    orbit.reserve(tile_orbit.size());
    for (const auto& perm : tile_orbit)
      orbit.push_back(lift_permutation(perm, cfg.dim, scenario.refine));
  }
  point.orbit_length = static_cast<int>(orbit.size());

  std::vector<std::vector<double>> migration_energy;
  if (scenario.scheme != MigrationScheme::kNone &&
      cfg.migration_energy_j > 0) {
    migration_energy.assign(
        orbit.size(),
        std::vector<double>(static_cast<std::size_t>(fine_nodes),
                            cfg.migration_energy_j / fine_nodes));
  }

  ThermalRunOptions topt = cfg.thermal;
  topt.period_s = scenario.period_s;
  const MigrationThermalRuntime runtime(model.network(), topt);

  const ThermalRunResult r = runtime.run(fine_power, orbit, migration_energy);
  point.peak_temp_c = r.peak_temp_c;
  point.mean_temp_c = r.mean_temp_c;
  point.ripple_c = r.ripple_c;
  point.steady_peak_of_avg_c = r.steady_peak_of_avg_c;
  point.orbits_run = r.orbits_run;
  point.converged = r.converged;

  // Static baseline of the same map (the runtime's static shortcut; the
  // factorizations are already cached in `runtime`). A kNone scenario's
  // main run *is* the static run, so reuse it rather than solving twice.
  const ThermalRunResult stat =
      scenario.scheme == MigrationScheme::kNone
          ? r
          : runtime.run(fine_power, {identity_permutation(fine_nodes)}, {});
  point.static_peak_c = stat.peak_temp_c;
  point.reduction_c = point.static_peak_c - point.peak_temp_c;
  return point;
}

namespace {

// Record layout for the sweep service: counts as raw words, temperatures
// as pack_double bit patterns, so records round-trip bit-exactly through
// the hex-string JSON transport.
enum ExperimentWord {
  kOrbitLength = 0,
  kFineNodes,
  kStaticPeak,
  kPeakTemp,
  kReduction,
  kMeanTemp,
  kRipple,
  kSteadyPeakOfAvg,
  kOrbitsRun,
  kConverged,
};
constexpr int kExperimentRecordWords = 10;

}  // namespace

sweep::SweepSpec make_experiment_sweep_spec(
    const ExperimentSweepConfig& cfg) {
  cfg.validate();
  sweep::SweepSpec spec;
  const auto grid =
      std::make_shared<const std::vector<ExperimentScenario>>(
          cfg.scenarios());
  spec.enumerated = static_cast<std::int64_t>(grid->size());
  spec.record_words = kExperimentRecordWords;

  // Everything a scenario's results depend on feeds the digest; threads
  // (and the service's shard/checkpoint geometry) are excluded because
  // results are invariant in them — a checkpoint written at one thread
  // count must resume at another.
  sweep::DigestBuilder digest;
  digest.fold_string("experiment");
  digest.fold(cfg.seed);
  digest.fold_int(cfg.dim.width);
  digest.fold_int(cfg.dim.height);
  digest.fold_real(cfg.tile_area);
  for (const MigrationScheme s : cfg.schemes)
    digest.fold_int(static_cast<int>(s));
  for (const double p : cfg.periods_s) digest.fold_real(p);
  for (const double s : cfg.power_scales) digest.fold_real(s);
  for (const int r : cfg.refines) digest.fold_int(r);
  digest.fold_int(static_cast<long long>(cfg.base_tile_power.size()));
  for (const double w : cfg.base_tile_power) digest.fold_real(w);
  digest.fold_real(cfg.synthetic_tile_power_w);
  digest.fold_real(cfg.power_jitter);
  digest.fold_real(cfg.migration_energy_j);
  digest.fold_real(cfg.thermal.dt_s);
  digest.fold_int(cfg.thermal.min_orbits);
  digest.fold_int(cfg.thermal.max_orbits);
  digest.fold_real(cfg.thermal.tol_c);
  digest.fold_real(cfg.hotspot.t_die);
  digest.fold_real(cfg.hotspot.k_die);
  digest.fold_real(cfg.hotspot.c_die);
  digest.fold_real(cfg.hotspot.t_interface);
  digest.fold_real(cfg.hotspot.k_interface);
  digest.fold_real(cfg.hotspot.s_spreader);
  digest.fold_real(cfg.hotspot.t_spreader);
  digest.fold_real(cfg.hotspot.s_sink);
  digest.fold_real(cfg.hotspot.t_sink);
  digest.fold_real(cfg.hotspot.r_convec);
  spec.config_digest = digest.digest();

  spec.make_runner = [&cfg, grid]() {
    return [&cfg, grid](std::int64_t scenario, std::uint64_t* words) {
      const ExperimentSweepPoint p = run_experiment_scenario(
          (*grid)[static_cast<std::size_t>(scenario)], cfg,
          static_cast<int>(scenario));
      words[kOrbitLength] = static_cast<std::uint64_t>(p.orbit_length);
      words[kFineNodes] = static_cast<std::uint64_t>(p.fine_nodes);
      words[kStaticPeak] = sweep::pack_double(p.static_peak_c);
      words[kPeakTemp] = sweep::pack_double(p.peak_temp_c);
      words[kReduction] = sweep::pack_double(p.reduction_c);
      words[kMeanTemp] = sweep::pack_double(p.mean_temp_c);
      words[kRipple] = sweep::pack_double(p.ripple_c);
      words[kSteadyPeakOfAvg] = sweep::pack_double(p.steady_peak_of_avg_c);
      words[kOrbitsRun] = static_cast<std::uint64_t>(p.orbits_run);
      words[kConverged] = p.converged ? 1u : 0u;
    };
  };
  return spec;
}

ExperimentSweepPoint experiment_point_from_record(
    const ExperimentScenario& scenario, const sweep::ScenarioRecord& rec) {
  RENOC_CHECK_MSG(rec.outcome == sweep::Outcome::kCompleted,
                  "cannot decode a " << sweep::to_string(rec.outcome)
                                     << " record into a sweep point");
  RENOC_CHECK_MSG(
      rec.words.size() == static_cast<std::size_t>(kExperimentRecordWords),
      "experiment record must have " << kExperimentRecordWords
                                     << " words, got " << rec.words.size());
  ExperimentSweepPoint p;
  p.scenario = scenario;
  p.scenario_index = static_cast<int>(rec.scenario);
  p.orbit_length = static_cast<int>(rec.words[kOrbitLength]);
  p.fine_nodes = static_cast<int>(rec.words[kFineNodes]);
  p.static_peak_c = sweep::unpack_double(rec.words[kStaticPeak]);
  p.peak_temp_c = sweep::unpack_double(rec.words[kPeakTemp]);
  p.reduction_c = sweep::unpack_double(rec.words[kReduction]);
  p.mean_temp_c = sweep::unpack_double(rec.words[kMeanTemp]);
  p.ripple_c = sweep::unpack_double(rec.words[kRipple]);
  p.steady_peak_of_avg_c = sweep::unpack_double(rec.words[kSteadyPeakOfAvg]);
  p.orbits_run = static_cast<int>(rec.words[kOrbitsRun]);
  p.converged = rec.words[kConverged] != 0;
  return p;
}

std::vector<ExperimentSweepPoint> run_experiment_sweep(
    const ExperimentSweepConfig& cfg) {
  sweep::ShardRunOptions run;
  run.threads = cfg.threads;
  const std::vector<sweep::ScenarioRecord> records =
      sweep::run_sweep_shard(make_experiment_sweep_spec(cfg), run).records;
  const std::vector<ExperimentScenario> grid = cfg.scenarios();
  std::vector<ExperimentSweepPoint> out;
  out.reserve(records.size());
  for (const sweep::ScenarioRecord& rec : records)
    out.push_back(experiment_point_from_record(
        grid[static_cast<std::size_t>(rec.scenario)], rec));
  return out;
}

}  // namespace renoc
