// Workload `study`: for each full-scale configuration A-E,
// ExperimentDriver::prepare() then scheme_study({None + the five Figure-1
// schemes}, {1, 4, 8} blocks per period): 90 thermal co-simulations.
//
// Why: thermal co-simulation (~50%) and the placer anneal (~25%) dominate
// and NoC decode is only ~20% (two measurement blocks per configuration).
// A and B (58 thermal nodes) take the dense-LU path under kAuto and C-E
// (85 nodes) sparse LDL^T, so work on the thermal solvers shows here and
// not in `stream`.
//
// The traced pass rebuilds ExperimentDriver's pipeline from the public
// calls it makes; it must reproduce every peak within the golden
// tolerance.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "core/chip_config.hpp"
#include "core/experiment.hpp"
#include "core/migration_controller.hpp"
#include "core/thermal_runtime.hpp"
#include "core/transform.hpp"
#include "ldpc/noc_decoder.hpp"
#include "mapping/placer.hpp"
#include "noc/fabric.hpp"
#include "power/energy_model.hpp"
#include "power/power_map.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace renoc;

constexpr int kMeasureBlocks = 2;  // ExperimentDriver::prepare's default
constexpr int kBlocksPerPeriod[] = {1, 4, 8};
// Average Figure-1 reductions the paper quotes (bench/fig1_peak_reduction
// .cpp header): X-Y Shift 4.62 C, Rot 4.15 C.
constexpr double kPaperShiftXYC = 4.62;
constexpr double kPaperRotationC = 4.15;

std::vector<MigrationScheme> study_schemes() {
  std::vector<MigrationScheme> schemes{MigrationScheme::kNone};
  for (MigrationScheme s : figure1_schemes()) schemes.push_back(s);
  return schemes;
}

std::vector<double> study_periods(double block_seconds) {
  std::vector<double> periods;
  for (int blocks : kBlocksPerPeriod) periods.push_back(blocks * block_seconds);
  return periods;
}

/// Folds one configuration's evaluations into the pass result.
/// `migration_cycles[s]` is the simulated halt cycles of scheme s's whole
/// orbit (simulated once per configuration, shared by all periods).
void record_config(PassResult& out, Cycle block_cycles,
                   const std::vector<SchemeEvaluation>& evals,
                   const std::vector<std::uint64_t>& migration_cycles,
                   double default_period_s) {
  out.sim_cycles += kMeasureBlocks * block_cycles;
  for (std::uint64_t c : migration_cycles) out.sim_cycles += c;
  out.ints.push_back(block_cycles);
  for (std::uint64_t c : migration_cycles) out.ints.push_back(c);
  int at_default_period = 0;
  for (const SchemeEvaluation& ev : evals) {
    ++out.attempted;
    if (!ev.thermal_converged) ++out.failed;
    out.ints.insert(out.ints.end(),
                    {static_cast<std::uint64_t>(ev.orbit_length),
                     static_cast<std::uint64_t>(ev.phases), ev.state_flits});
    out.reals.push_back(ev.peak_temp_c);
    // Figure 1 is evaluated at the paper-aligned default period.
    if (ev.period_s != default_period_s) continue;
    ++at_default_period;
    if (ev.scheme == MigrationScheme::kShiftXY)
      out.accuracy["fig1_shift_xy_c"] += ev.reduction_c;
    if (ev.scheme == MigrationScheme::kRotation)
      out.accuracy["fig1_rotation_c"] += ev.reduction_c;
  }
  RENOC_CHECK_MSG(at_default_period > 0,
                  "the default period is not one of the study periods");
}

/// Turns the per-configuration sums into averages and fig1_err_c: the mean
/// absolute error of the two averages against the paper.
void finish_accuracy(PassResult& out, std::size_t configs) {
  const double n = static_cast<double>(configs);
  double& shift = out.accuracy["fig1_shift_xy_c"];
  double& rot = out.accuracy["fig1_rotation_c"];
  shift /= n;
  rot /= n;
  out.accuracy["fig1_err_c"] = 0.5 * (std::abs(shift - kPaperShiftXYC) +
                                      std::abs(rot - kPaperRotationC));
}

/// Halt cycles of each migrating scheme's orbit, recovered from the
/// ExperimentDriver's mean halt time (an exact multiple of the clock
/// period).
std::vector<std::uint64_t> orbit_cycles(
    const std::vector<SchemeEvaluation>& evals, std::size_t periods,
    double clock_hz) {
  std::vector<std::uint64_t> cycles;
  for (std::size_t i = 0; i < evals.size(); i += periods) {
    const SchemeEvaluation& ev = evals[i];
    if (ev.scheme == MigrationScheme::kNone) continue;
    cycles.push_back(static_cast<std::uint64_t>(
        std::llround(ev.migration_s * clock_hz * ev.orbit_length)));
  }
  return cycles;
}

double default_period(double block_seconds) {
  // ExperimentDriver::default_period_s: whole blocks closest to 109.3 us.
  return std::max(1.0, std::round(109.3e-6 / block_seconds)) * block_seconds;
}

class StudyWorkload final : public Workload {
 public:
  explicit StudyWorkload(std::uint64_t seed) : configs_(all_configs()) {
    for (ChipConfig& cfg : configs_)
      cfg.channel_seed = derive_stream_seed(seed, cfg.channel_seed);
  }

  void setup() override {
    experiments_.clear();
    for (const ChipConfig& cfg : configs_)
      experiments_.push_back(std::make_unique<ExperimentDriver>(cfg));
  }

  PassResult run_pass() override {
    PassResult out;
    const std::vector<MigrationScheme> schemes = study_schemes();
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      ExperimentDriver& experiment = *experiments_[i];
      experiment.prepare(kMeasureBlocks);
      const std::vector<double> periods =
          study_periods(experiment.block_seconds());
      const std::vector<SchemeEvaluation> evals =
          experiment.scheme_study(schemes, periods);
      record_config(out, experiment.block_cycles(), evals,
                    orbit_cycles(evals, periods.size(),
                                 configs_[i].noc.clock_hz),
                    experiment.default_period_s());
    }
    finish_accuracy(out, configs_.size());
    return out;
  }

  // The traced program needs no state beyond the configurations: like
  // ExperimentDriver, each pass builds everything inside prepare.
  void setup_traced(Tracer&) override {}

  PassResult run_pass_traced(Tracer& tracer) override {
    PassResult out;
    for (const ChipConfig& cfg : configs_) run_config_traced(tracer, cfg, out);
    finish_accuracy(out, configs_.size());
    const double decode_cycles = out.counts["noc.decode_cycles"];
    out.counts["noc.block_cycles"] =
        decode_cycles / (kMeasureBlocks * static_cast<double>(configs_.size()));
    out.counts["noc.link_flits_per_cycle"] =
        out.counts["noc.decode_link_flits"] / decode_cycles;
    out.counts.erase("noc.decode_cycles");
    out.counts.erase("noc.decode_link_flits");
    return out;
  }

 private:
  /// ExperimentDriver::prepare + scheme_study for one configuration, from
  /// the public calls they make, in the same order and arithmetic.
  void run_config_traced(Tracer& tracer, const ChipConfig& cfg,
                         PassResult& out) {
    const int routers = cfg.dim.node_count();
    std::unique_ptr<BuiltChip> built;
    {
      Scope span(tracer, "ldpc.build_chip");
      built = std::make_unique<BuiltChip>(build_chip(cfg));
    }
    std::unique_ptr<RcNetwork> net;
    {
      Scope span(tracer, "thermal.build_rc_network");
      net = std::make_unique<RcNetwork>(
          build_rc_network(built->floorplan, cfg.hotspot));
    }
    std::unique_ptr<SteadyStateSolver> steady;
    {
      Scope span(tracer, "thermal.steady_factor");
      steady = std::make_unique<SteadyStateSolver>(*net);
    }
    std::vector<int> placement;
    {
      // ExperimentDriver::prepare also prices the identity placement here.
      Scope span(tracer, "mapping.place");
      const ThermalAwarePlacer placer(*steady, cfg.dim, cfg.placer);
      const PlacementResult placed = placer.place(
          built->compute_power_estimate, built->traffic, cfg.workload.pins);
      placement = placed.placement;
      (void)placer.peak_temperature_of(identity_permutation(routers),
                                       built->compute_power_estimate);
      out.counts["mapping.improving_moves"] += placed.improving_moves;
    }

    // measure_power_map at scale 1.
    Fabric fabric(cfg.noc);
    NocLdpcDecoder decoder(fabric, built->code, built->partition, placement,
                           cfg.ldpc_params);
    fabric.stats().clear();
    const Cycle start = fabric.now();
    Cycle block_cycles = 0;
    for (int b = 0; b < kMeasureBlocks; ++b) {
      Scope span(tracer, "noc.decode_block");
      block_cycles = decoder.decode_block(built->channel_llrs).cycles;
      span.cycles(block_cycles, routers);
    }
    const double window =
        static_cast<double>(fabric.now() - start) / cfg.noc.clock_hz;
    const EnergyModel energy(cfg.energy);
    std::vector<double> base_power;
    {
      Scope span(tracer, "power.power_map");
      base_power = energy.power_map(fabric.stats(), window, 1.0);
    }
    out.counts["noc.decode_cycles"] +=
        static_cast<double>(kMeasureBlocks * block_cycles);
    out.counts["noc.decode_link_flits"] +=
        static_cast<double>(fabric.stats().total().link_flits);

    // Calibration to the paper's base peak.
    std::vector<double> rise;
    steady->solve_die_power_into(base_power, rise);
    const double scale = (cfg.paper_base_peak_c - cfg.hotspot.ambient) /
                         net->peak_die_rise(rise);
    scale_map(base_power, scale);
    steady->solve_die_power_into(base_power, rise);
    const double base_peak = net->ambient() + net->peak_die_rise(rise);
    out.counts["thermal.nodes"] += net->node_count();

    const double block_seconds =
        static_cast<double>(block_cycles) / cfg.noc.clock_hz;
    const std::vector<double> periods = study_periods(block_seconds);
    std::map<double, std::unique_ptr<MigrationThermalRuntime>> runtimes;
    std::vector<SchemeEvaluation> evals;
    std::vector<std::uint64_t> migration_cycles;
    for (MigrationScheme scheme : study_schemes()) {
      Migration m;
      if (scheme != MigrationScheme::kNone) {
        m = measure_migration(tracer, cfg, *built, placement, scheme, scale,
                              out);
        migration_cycles.push_back(m.cycles);
      }
      for (double period : periods) {
        auto it = runtimes.find(period);
        const bool first = it == runtimes.end();
        if (first) {
          ThermalRunOptions options;
          options.period_s = period;
          it = runtimes
                   .emplace(period, std::make_unique<MigrationThermalRuntime>(
                                        *net, options))
                   .first;
        }
        SchemeEvaluation ev;
        ev.scheme = scheme;
        ev.period_s = period;
        ThermalRunResult r;
        {
          // The first run() per period includes the lazy factorization.
          Scope span(tracer, first ? "core.thermal_run_first"
                                   : "core.thermal_run_warm");
          r = scheme == MigrationScheme::kNone
                  ? it->second->run(base_power,
                                    {identity_permutation(routers)}, {})
                  : it->second->run(base_power, m.orbit, m.energy);
        }
        out.counts["core.thermal_orbits"] += r.orbits_run;
        ev.orbit_length =
            scheme == MigrationScheme::kNone
                ? 1
                : static_cast<int>(m.orbit.size());
        ev.phases = m.phases;
        ev.state_flits = m.state_flits;
        ev.peak_temp_c = r.peak_temp_c;
        ev.reduction_c =
            scheme == MigrationScheme::kNone ? 0.0 : base_peak - r.peak_temp_c;
        ev.thermal_converged = r.converged;
        evals.push_back(ev);
      }
    }
    record_config(out, block_cycles, evals, migration_cycles,
                  default_period(block_seconds));
  }

  struct Migration {
    std::vector<std::vector<int>> orbit;
    std::vector<std::vector<double>> energy;  // per segment, per tile (J)
    std::uint64_t cycles = 0;
    int phases = 0;
    std::uint64_t state_flits = 0;
  };

  /// ExperimentDriver::measure_migration: one orbit of real migrations on
  /// a fresh fabric, with per-step calibrated energy maps.
  static Migration measure_migration(Tracer& tracer, const ChipConfig& cfg,
                                     const BuiltChip& built,
                                     const std::vector<int>& home,
                                     MigrationScheme scheme, double scale,
                                     PassResult& out) {
    const Transform transform = transform_of(scheme);
    Migration m;
    m.orbit = orbit_permutations(transform, cfg.dim);
    const std::size_t L = m.orbit.size();
    Fabric fabric(cfg.noc);
    NocLdpcDecoder decoder(fabric, built.code, built.partition, home,
                           cfg.ldpc_params);
    std::vector<int> state_words;
    for (int c = 0; c < decoder.cluster_count(); ++c)
      state_words.push_back(decoder.migration_state_words(c));
    MigrationController controller(fabric, transform);
    const EnergyModel energy(cfg.energy);
    std::vector<int> placement = home;
    std::vector<std::vector<double>> step_energy(L);
    for (std::size_t k = 0; k < L; ++k) {
      fabric.stats().clear();
      MigrationReport rep;
      {
        Scope span(tracer, "core.migrate");
        rep = controller.migrate(placement, state_words);
        span.cycles(rep.total_cycles, fabric.node_count());
      }
      std::vector<double> e_map(static_cast<std::size_t>(fabric.node_count()));
      for (int t = 0; t < fabric.node_count(); ++t)
        e_map[static_cast<std::size_t>(t)] =
            scale * energy.tile_dynamic_energy(fabric.stats().tile(t));
      step_energy[k] = std::move(e_map);
      m.cycles += rep.total_cycles;
      out.counts["core.migration_cycles"] +=
          static_cast<double>(rep.total_cycles);
      out.counts["core.state_flits"] += static_cast<double>(rep.state_flits);
      if (k == 0) {
        m.phases = rep.phases;
        m.state_flits = rep.state_flits;
      }
    }
    RENOC_CHECK_MSG(placement == home, "orbit did not close");
    m.energy.resize(L);
    for (std::size_t seg = 0; seg < L; ++seg)
      m.energy[seg] = step_energy[(seg + L - 1) % L];
    return m;
  }

  std::vector<ChipConfig> configs_;
  std::vector<std::unique_ptr<ExperimentDriver>> experiments_;
};

}  // namespace

std::unique_ptr<Workload> make_study_workload(std::uint64_t seed) {
  return std::make_unique<StudyWorkload>(seed);
}

}  // namespace perfbench
