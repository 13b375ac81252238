// Physical floorplan: rectangular blocks on the die.
//
// The DATE'05 test chips are meshes of identical functional units
// ("each functional unit has an area of 4.36 sq. mm"), so the floorplans
// here are uniform grids of square PE tiles; the class nevertheless keeps
// full rectangle geometry (as HotSpot floorplan files do) so the thermal
// model computes lateral conduction from actual shared edge lengths.
#pragma once

#include <string>
#include <vector>

#include "floorplan/grid.hpp"

namespace renoc {

/// A placed rectangular block. Units: meters. (x, y) is the lower-left
/// corner; the die's lower-left corner is the origin.
struct Block {
  std::string name;
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;

  double area() const { return width * height; }
  double center_x() const { return x + width / 2.0; }
  double center_y() const { return y + height / 2.0; }
};

/// Lateral adjacency between two blocks: the length of their shared edge.
struct Adjacency {
  int a = 0;           ///< block index
  int b = 0;           ///< block index, a < b
  double shared_len = 0.0;  ///< meters of common boundary
  bool horizontal = false;  ///< true if blocks abut left/right of each other
};

/// An immutable set of placed blocks plus derived geometry.
class Floorplan {
 public:
  explicit Floorplan(std::vector<Block> blocks);

  int block_count() const { return static_cast<int>(blocks_.size()); }
  const Block& block(int i) const;
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Pairs of blocks that share a boundary segment (> tolerance).
  const std::vector<Adjacency>& adjacencies() const { return adjacencies_; }

  /// Bounding box of all blocks (the die outline).
  double die_width() const { return die_width_; }
  double die_height() const { return die_height_; }
  double die_area() const { return die_width_ * die_height_; }

 private:
  void compute_adjacencies();

  std::vector<Block> blocks_;
  std::vector<Adjacency> adjacencies_;
  double die_width_ = 0.0;
  double die_height_ = 0.0;
};

/// Builds the uniform PE-grid floorplan of the paper's test chips:
/// `dim` tiles, each of `tile_area` square meters (square tiles).
/// Block i corresponds to mesh node index i (see grid.hpp).
Floorplan make_grid_floorplan(const GridDim& dim, double tile_area);

/// The DATE'05 per-PE area: 4.36 mm^2.
double date05_tile_area();

}  // namespace renoc
