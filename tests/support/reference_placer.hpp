// Seed semantics oracle for the thermally-aware placer.
//
// This is ThermalAwarePlacer::place exactly as it stood before the anneal
// priced its swaps incrementally: every move rebuilds the tile-power map,
// re-solves the thermal network and re-walks the whole traffic matrix. It
// is kept verbatim — like the other oracles in tests/support — as the
// semantics oracle the incremental anneal must agree with bit for bit in
// every PlacementResult field (tests/mapping_test pins this).
//
// Do not optimize this file; that is the placer's job.
#pragma once

#include <cstdint>
#include <vector>

#include "floorplan/grid.hpp"
#include "mapping/placer.hpp"
#include "thermal/solver.hpp"

namespace renoc {

/// The full-recompute ThermalAwarePlacer. Same inputs, options, and result
/// contract as ThermalAwarePlacer::place.
class ReferencePlacer {
 public:
  ReferencePlacer(const SteadyStateSolver& solver, const GridDim& dim,
                  PlacerOptions options);

  PlacementResult place(
      const std::vector<double>& cluster_power,
      const std::vector<std::vector<std::uint64_t>>& traffic,
      const std::vector<ThermalAwarePlacer::Pin>& pins = {}) const;

  /// The annealing objective of a placement, computed from scratch.
  double cost_of(const std::vector<int>& placement,
                 const std::vector<double>& cluster_power,
                 const std::vector<std::vector<std::uint64_t>>& traffic)
      const;

 private:
  double peak_temperature_of(const std::vector<int>& placement,
                             const std::vector<double>& cluster_power) const;
  std::vector<double> tile_power_of(
      const std::vector<int>& placement,
      const std::vector<double>& cluster_power) const;
  double comm_cost_of(
      const std::vector<int>& placement,
      const std::vector<std::vector<std::uint64_t>>& traffic) const;

  const SteadyStateSolver* solver_;
  GridDim dim_;
  PlacerOptions options_;
};

}  // namespace renoc
