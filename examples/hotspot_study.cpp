// Hotspot study: where does the heat go when the workload moves?
//
// A deeper tour of the library for thermal work: prints the temperature
// field of a chip configuration as an ASCII heat map, shows the
// orbit-averaged field under each migration scheme, and demonstrates the
// odd-mesh fixed-point effect the paper describes (the central PE that
// rotation and mirroring cannot cool). Run with a configuration name:
//
//   ./build/examples/example_hotspot_study        # defaults to E
//   ./build/examples/example_hotspot_study A
//
// A name outside A-E prints the usage line and exits 2 before any
// simulation; a failed run exits 1.
//
// The evaluation sections run through the library's study entry points
// rather than hand-rolled loops: the scheme comparison uses
// ExperimentDriver::scheme_study (cached migration measurements shared
// across periods) and the scheme x period x refinement grid uses the
// experiment sweep on the driver's measured power map.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/chip_config.hpp"
#include "core/experiment.hpp"
#include "core/experiment_sweep.hpp"
#include "core/thermal_runtime.hpp"
#include "power/power_map.hpp"
#include "thermal/solver.hpp"

namespace renoc {
namespace {

void print_heat_map(const char* title, const GridDim& dim,
                    const std::vector<double>& temps) {
  // Five brightness buckets between the min and max of this map.
  double lo = temps[0], hi = temps[0];
  for (double t : temps) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  static const char* kShades[] = {" .", " o", " O", " #", " @"};
  std::printf("%s  [%.2f .. %.2f C]\n", title, lo, hi);
  for (int y = dim.height - 1; y >= 0; --y) {
    std::printf("   ");
    for (int x = 0; x < dim.width; ++x) {
      const double t = temps[static_cast<std::size_t>(y * dim.width + x)];
      const int bucket =
          hi > lo ? std::min(4, static_cast<int>((t - lo) / (hi - lo) * 5))
                  : 0;
      std::printf("%s", kShades[bucket]);
    }
    std::printf("   ");
    for (int x = 0; x < dim.width; ++x)
      std::printf(" %6.2f",
                  temps[static_cast<std::size_t>(y * dim.width + x)]);
    std::printf("\n");
  }
}

int run(const std::string& name) {
  ExperimentDriver driver(config_by_name(name));
  driver.prepare();
  const GridDim dim = driver.chip().config.dim;

  std::printf("=== configuration %s ===\n", name.c_str());
  print_heat_map("baseline (static thermally-aware placement)", dim,
                 driver.baseline_die_temps());

  // Orbit-averaged steady fields per scheme: what the die settles to when
  // migration time-shares the workload across tiles.
  SteadyStateSolver steady(driver.thermal_network());
  for (MigrationScheme scheme : figure1_schemes()) {
    const Transform t = transform_of(scheme);
    const auto orbit = orbit_permutations(t, dim);
    std::vector<std::vector<double>> maps;
    for (const auto& perm : orbit)
      maps.push_back(apply_permutation(driver.base_power(), perm));
    const std::vector<double> avg = average_maps(maps);
    const std::vector<double> rise = steady.solve_die_power(avg);
    std::vector<double> temps(static_cast<std::size_t>(dim.node_count()));
    for (int i = 0; i < dim.node_count(); ++i)
      temps[static_cast<std::size_t>(i)] =
          driver.thermal_network().ambient() +
          rise[static_cast<std::size_t>(i)];
    std::printf("\n");
    print_heat_map(to_string(scheme), dim, temps);

    const auto fixed = t.fixed_points(dim);
    if (!fixed.empty()) {
      std::printf("   fixed points:");
      for (const GridCoord& c : fixed) std::printf(" %s", to_string(c).c_str());
      std::printf("  <- tiles this scheme can never cool\n");
    }
  }

  std::printf("\nfull evaluation (migration energy + ripple included):\n");
  for (const SchemeEvaluation& ev : driver.scheme_study(figure1_schemes())) {
    std::printf("  %-12s peak %.2f C  reduction %+.2f C  cost %.2f%%\n",
                to_string(ev.scheme), ev.peak_temp_c, ev.reduction_c,
                ev.throughput_penalty * 100);
  }

  // Scheme x period x refinement grid over the measured workload map:
  // the experiment sweep co-simulates every scheme of a (refinement,
  // period) pair in one lockstep batch.
  ExperimentSweepConfig scfg;
  scfg.dim = dim;
  scfg.schemes = figure1_schemes();
  scfg.periods_s = {driver.default_period_s(), 4 * driver.default_period_s()};
  scfg.refines = {1, 2};
  scfg.base_tile_power = driver.base_power();
  std::printf(
      "\nsweep: scheme x {1x, 4x} period x {1, 2} refine "
      "(%d scenarios)\n",
      static_cast<int>(scfg.scenarios().size()));
  std::printf("  %-12s %9s %7s %9s %10s %8s\n", "scheme", "period us",
              "refine", "peak C", "reduction", "ripple");
  for (const ExperimentSweepPoint& pt : run_experiment_sweep(scfg)) {
    std::printf("  %-12s %9.1f %7d %9.2f %+10.2f %8.3f\n",
                to_string(pt.scenario.scheme), pt.scenario.period_s * 1e6,
                pt.scenario.refine, pt.peak_temp_c, pt.reduction_c,
                pt.ripple_c);
  }
  return 0;
}

}  // namespace
}  // namespace renoc

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "E";
  bool known = false;
  for (const renoc::ChipConfig& cfg : renoc::all_configs())
    known = known || cfg.name == name;
  if (argc > 2 || !known) {
    std::fprintf(stderr, "usage: %s [A|B|C|D|E]  (default E)\n", argv[0]);
    return 2;
  }
  try {
    return renoc::run(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "example_hotspot_study: %s\n", e.what());
    return 1;
  }
}
