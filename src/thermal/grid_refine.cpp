#include "thermal/grid_refine.hpp"

#include "thermal/solver.hpp"
#include "util/check.hpp"

namespace renoc {

int RefinedThermalModel::checked_refine(int refine) {
  RENOC_CHECK_MSG(refine >= 1 && refine <= 8,
                  "refine factor " << refine << " out of supported range");
  return refine;
}

// checked_refine() must run before the first member that uses `refine`:
// members initialize in declaration order, so validating in the body (as an
// earlier version did) let refine=0 divide tile_area by zero and build a
// bogus 0x0 fine grid before the check ever executed.
RefinedThermalModel::RefinedThermalModel(const GridDim& tile_dim,
                                         double tile_area,
                                         const HotSpotParams& params,
                                         int refine)
    : tile_dim_(tile_dim),
      fine_dim_{tile_dim.width * checked_refine(refine),
                tile_dim.height * refine},
      refine_(refine),
      net_(build_rc_network(
          make_grid_floorplan(fine_dim_,
                              tile_area / (static_cast<double>(refine) *
                                           refine)),
          params)) {}

std::vector<int> RefinedThermalModel::subblocks_of_tile(int tile) const {
  RENOC_CHECK(tile >= 0 && tile < tile_dim_.node_count());
  const GridCoord tc = index_to_coord(tile, tile_dim_);
  std::vector<int> blocks;
  blocks.reserve(static_cast<std::size_t>(refine_ * refine_));
  for (int dy = 0; dy < refine_; ++dy) {
    for (int dx = 0; dx < refine_; ++dx) {
      const GridCoord fc{tc.x * refine_ + dx, tc.y * refine_ + dy};
      blocks.push_back(coord_to_index(fc, fine_dim_));
    }
  }
  return blocks;
}

std::vector<double> RefinedThermalModel::refine_power(
    const std::vector<double>& tile_power) const {
  RENOC_CHECK(static_cast<int>(tile_power.size()) == tile_dim_.node_count());
  std::vector<double> fine(
      static_cast<std::size_t>(fine_dim_.node_count()), 0.0);
  const double share = 1.0 / (static_cast<double>(refine_) * refine_);
  for (int tile = 0; tile < tile_dim_.node_count(); ++tile) {
    const double p = tile_power[static_cast<std::size_t>(tile)] * share;
    for (int b : subblocks_of_tile(tile))
      fine[static_cast<std::size_t>(b)] = p;
  }
  return fine;
}

const SteadyStateSolver& RefinedThermalModel::steady_solver() const {
  if (!solver_) solver_ = std::make_unique<SteadyStateSolver>(net_);
  return *solver_;
}

double RefinedThermalModel::peak_tile_temperature(
    const std::vector<double>& tile_power) const {
  const std::vector<double> rise =
      steady_solver().solve_die_power(refine_power(tile_power));
  return net_.ambient() + net_.peak_die_rise(rise);
}

}  // namespace renoc
