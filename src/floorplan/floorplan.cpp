#include "floorplan/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/units.hpp"

namespace renoc {
namespace {

// Two edges "touch" if their separation is below this (meters). Block
// dimensions are ~2 mm, so 1 nm is far below any real gap.
constexpr double kTouchTol = 1e-9;

// Overlap length of 1-D intervals [a0,a1] and [b0,b1].
double interval_overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

Floorplan::Floorplan(std::vector<Block> blocks) : blocks_(std::move(blocks)) {
  RENOC_CHECK_MSG(!blocks_.empty(), "floorplan needs at least one block");
  for (const Block& b : blocks_) {
    RENOC_CHECK_MSG(b.width > 0 && b.height > 0,
                    "block '" << b.name << "' has non-positive size");
    die_width_ = std::max(die_width_, b.x + b.width);
    die_height_ = std::max(die_height_, b.y + b.height);
  }
  compute_adjacencies();
}

const Block& Floorplan::block(int i) const {
  RENOC_CHECK_MSG(i >= 0 && i < block_count(), "block index " << i);
  return blocks_[static_cast<std::size_t>(i)];
}

void Floorplan::compute_adjacencies() {
  const int n = block_count();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Block& a = blocks_[static_cast<std::size_t>(i)];
      const Block& b = blocks_[static_cast<std::size_t>(j)];
      // Vertical shared edge: a's right against b's left or vice versa.
      if (std::fabs((a.x + a.width) - b.x) < kTouchTol ||
          std::fabs((b.x + b.width) - a.x) < kTouchTol) {
        const double len =
            interval_overlap(a.y, a.y + a.height, b.y, b.y + b.height);
        if (len > kTouchTol)
          adjacencies_.push_back({i, j, len, /*horizontal=*/true});
      }
      // Horizontal shared edge: a's top against b's bottom or vice versa.
      if (std::fabs((a.y + a.height) - b.y) < kTouchTol ||
          std::fabs((b.y + b.height) - a.y) < kTouchTol) {
        const double len =
            interval_overlap(a.x, a.x + a.width, b.x, b.x + b.width);
        if (len > kTouchTol)
          adjacencies_.push_back({i, j, len, /*horizontal=*/false});
      }
    }
  }
}

Floorplan make_grid_floorplan(const GridDim& dim, double tile_area) {
  RENOC_CHECK(dim.width > 0 && dim.height > 0);
  RENOC_CHECK(tile_area > 0);
  const double side = std::sqrt(tile_area);
  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(dim.node_count()));
  for (int y = 0; y < dim.height; ++y) {
    for (int x = 0; x < dim.width; ++x) {
      std::ostringstream name;
      name << "pe_" << x << "_" << y;
      blocks.push_back(Block{name.str(), x * side, y * side, side, side});
    }
  }
  return Floorplan(std::move(blocks));
}

double date05_tile_area() { return units::mm2(4.36); }

}  // namespace renoc
