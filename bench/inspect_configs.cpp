// Diagnostic report for the five chip configurations: placement grids,
// calibrated power maps, and baseline temperature fields. Not a paper
// artifact by itself, but the evidence behind the workload design that
// src/core/chip_config.hpp describes (hot row in every configuration;
// configuration E's central hotspot) and the calibration scales
// PAPER_fig1.json records.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "power/power_map.hpp"

namespace renoc {
namespace {

void print_grid(const char* title, const GridDim& dim,
                const std::vector<double>& values) {
  std::printf("%s\n", title);
  for (int y = dim.height - 1; y >= 0; --y) {
    std::printf("  y=%d |", y);
    for (int x = 0; x < dim.width; ++x)
      std::printf(" %7.2f",
                  values[static_cast<std::size_t>(y * dim.width + x)]);
    std::printf("\n");
  }
}

void print_placement(const GridDim& dim, const std::vector<int>& placement) {
  // Show which cluster sits on each tile.
  std::vector<int> cluster_on_tile(
      static_cast<std::size_t>(dim.node_count()), -1);
  for (std::size_t c = 0; c < placement.size(); ++c)
    cluster_on_tile[static_cast<std::size_t>(placement[c])] =
        static_cast<int>(c);
  std::printf("thermally-aware placement (cluster id on each tile)\n");
  for (int y = dim.height - 1; y >= 0; --y) {
    std::printf("  y=%d |", y);
    for (int x = 0; x < dim.width; ++x)
      std::printf(" %4d",
                  cluster_on_tile[static_cast<std::size_t>(y * dim.width + x)]);
    std::printf("\n");
  }
}

void inspect(const ChipConfig& cfg) {
  std::printf("==== configuration %s (%dx%d, n=%d, paper base %.2f C) ====\n",
              cfg.name.c_str(), cfg.dim.width, cfg.dim.height,
              cfg.workload.code_n, cfg.paper_base_peak_c);
  ExperimentDriver driver(cfg);
  driver.prepare();

  std::printf("block: %llu cycles = %.2f us; total power %.1f W; "
              "calibration scale %.3f\n",
              static_cast<unsigned long long>(driver.block_cycles()),
              driver.block_seconds() * 1e6, driver.total_power_w(),
              driver.calibration_scale());
  print_placement(cfg.dim, driver.baseline_placement());
  print_grid("calibrated power map (W per tile)", cfg.dim,
             driver.base_power());
  print_grid("baseline die temperature (C)", cfg.dim,
             driver.baseline_die_temps());

  // Row power totals: the paper's "warm band" evidence.
  std::printf("row power totals (W):");
  for (int y = 0; y < cfg.dim.height; ++y) {
    double row = 0;
    for (int x = 0; x < cfg.dim.width; ++x)
      row += driver.base_power()[static_cast<std::size_t>(
          y * cfg.dim.width + x)];
    std::printf(" y%d=%.1f", y, row);
  }
  std::printf("\n\n");
}

}  // namespace
}  // namespace renoc

int main() {
  for (const renoc::ChipConfig& cfg : renoc::all_configs())
    renoc::inspect(cfg);
  return 0;
}
