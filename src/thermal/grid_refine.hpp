// Grid-refined thermal model: the block-vs-grid ablation.
//
// HotSpot offers both a block-level model (one node per floorplan unit —
// what the paper's experiments use) and a finer grid model. To show the
// reproduction's conclusions are not artifacts of the coarse resolution,
// this module rebuilds the RC network with every PE tile subdivided into
// refine x refine sub-blocks (the package layers scale automatically
// because they are derived from the floorplan). Tile power spreads
// uniformly over a tile's sub-blocks, and the peak is the hottest
// sub-block.
//
// renoc_paper's PAPER_resolution.json sweeps the refinement factor and
// reruns the Figure-1 comparison to confirm the scheme ordering holds.
#pragma once

#include <memory>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "thermal/hotspot_params.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"

namespace renoc {

class RefinedThermalModel {
 public:
  /// Subdivides each tile of a `tile_dim` PE grid (each tile_area m^2)
  /// into refine x refine sub-blocks and builds the RC network over the
  /// fine floorplan. refine == 1 reproduces the block model exactly.
  RefinedThermalModel(const GridDim& tile_dim, double tile_area,
                      const HotSpotParams& params, int refine);

  int refine() const { return refine_; }
  const GridDim& tile_dim() const { return tile_dim_; }
  const GridDim& fine_dim() const { return fine_dim_; }
  const RcNetwork& network() const { return net_; }

  /// Spreads per-tile watts uniformly over each tile's sub-blocks.
  std::vector<double> refine_power(
      const std::vector<double>& tile_power) const;

  /// Peak die temperature for a per-tile power map (steady state). Reuses
  /// the cached steady_solver(), so repeated queries pay one factorization.
  double peak_tile_temperature(const std::vector<double>& tile_power) const;

  /// Steady-state solver over the refined network, built on first use and
  /// cached for the lifetime of the model (not thread-safe, like the rest
  /// of the library).
  const SteadyStateSolver& steady_solver() const;

  /// Sub-block indices belonging to a tile (row-major within the fine
  /// grid; exposed for tests).
  std::vector<int> subblocks_of_tile(int tile) const;

 private:
  /// Validates the refinement factor; called from the member-init list
  /// before anything divides by or sizes with it.
  static int checked_refine(int refine);

  GridDim tile_dim_;
  GridDim fine_dim_;
  int refine_;
  RcNetwork net_;
  mutable std::unique_ptr<SteadyStateSolver> solver_;  // lazy cache
};

}  // namespace renoc
