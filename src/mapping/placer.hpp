// Thermally-aware static placement (the paper's baseline).
//
// "Our workload was mapped onto PEs using a thermally-aware placement
// algorithm that minimizes the peak temperature." We implement that
// baseline as simulated annealing over cluster->tile assignments:
//
//   cost(placement) = peak steady-state die temperature of the power map
//                     induced by per-cluster compute power
//                   + comm_weight * sum_ij traffic[i][j] * hops(i, j)
//
// The communication term is a small tie-break that keeps chatty clusters
// close (a pure peak-temperature objective is degenerate: many placements
// share the same peak), mirroring how real thermally-aware mappers also
// respect communication. The SA uses pairwise swaps, geometric cooling,
// and the experiment RNG for reproducibility.
//
// The placer sees only per-cluster *compute* power; router/link power is a
// consequence of placement and is captured afterwards by the full
// cycle-accurate simulation. This one-way split matches the paper's flow
// (placement happens at design time with model power, evaluation happens
// with the simulator).
//
// place() prices each swap incrementally (the net-cost update of VPR,
// Betz & Rose, FPL 1997), and every move's cost equals the full recompute
// (peak_temperature_of plus comm_weight times comm_cost_of) bit for bit:
//
//   * communication is an integer total, updated in O(clusters) from the
//     two swapped clusters' rows weighted by traffic[i][k] + traffic[k][i].
//     place() requires sum(traffic) * max hops < 2^53 (a 1-tile mesh counts
//     one hop), so every partial sum of comm_cost_of's double loop is exact
//     and the one conversion to double equals it;
//   * tile power is one vector whose occupied entries are 0.0 + p, as
//     tile_power_of builds them; a swap exchanges its two tiles' entries;
//   * when those entries are equal (two clusters of equal design-time
//     power, or a zero-power cluster moving into an empty tile) the power
//     map is unchanged, so the current peak is reused without a solve.
//
// The RNG draws, accept decisions and results therefore match the
// per-move full recompute that tests/support keeps as the oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "floorplan/grid.hpp"
#include "thermal/solver.hpp"
#include "util/rng.hpp"

namespace renoc {

struct PlacerOptions {
  int iterations = 20000;
  double temp_start = 4.0;   ///< SA temperature, in objective units (C)
  double temp_end = 0.02;
  double comm_weight = 0.0;  ///< C per (value * hop); 0 = pure thermal
  std::uint64_t seed = 1;
};

struct PlacementResult {
  std::vector<int> placement;  ///< cluster -> tile
  double peak_temperature = 0.0;  ///< C, at the accepted placement
  double comm_cost = 0.0;         ///< sum traffic * hops
  double cost = 0.0;              ///< combined objective
  int improving_moves = 0;        ///< accepted cost-reducing swaps
};

class ThermalAwarePlacer {
 public:
  /// `solver` must be built over the floorplan whose blocks are the tiles
  /// of `dim` (block i == tile i).
  ThermalAwarePlacer(const SteadyStateSolver& solver, const GridDim& dim,
                     PlacerOptions options);

  /// A hard assignment the annealer must respect: `cluster` stays on
  /// `tile`. Used for architecturally fixed units (e.g. the check-node
  /// row of the ISVLSI'05 LDPC pipeline, whose position is wired into the
  /// chip); the placer optimizes the movable remainder.
  struct Pin {
    int cluster = 0;
    int tile = 0;
  };

  /// Anneals cluster->tile. `cluster_power` (watts per cluster) must have
  /// at most dim.node_count() entries; `traffic[i][j]` is values exchanged
  /// between clusters i and j per unit work (any consistent unit), one
  /// row and one column per cluster, within the 2^53 bound above. Pinned
  /// clusters keep their tiles.
  PlacementResult place(const std::vector<double>& cluster_power,
                        const std::vector<std::vector<std::uint64_t>>& traffic,
                        const std::vector<Pin>& pins = {}) const;

  /// Peak steady-state temperature of a placement under compute power.
  /// `placement` has one tile per `cluster_power` entry.
  double peak_temperature_of(const std::vector<int>& placement,
                             const std::vector<double>& cluster_power) const;

 private:
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
