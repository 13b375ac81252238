// Tests for grid coordinates and physical floorplans.
#include <gtest/gtest.h>

#include <cmath>

#include "floorplan/floorplan.hpp"
#include "floorplan/grid.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace renoc {
namespace {

TEST(GridTest, IndexRoundTrip) {
  const GridDim dim{4, 5};
  for (int i = 0; i < dim.node_count(); ++i) {
    const GridCoord c = index_to_coord(i, dim);
    EXPECT_EQ(coord_to_index(c, dim), i);
  }
}

TEST(GridTest, RowMajorConvention) {
  const GridDim dim{4, 4};
  EXPECT_EQ(coord_to_index({0, 0}, dim), 0);
  EXPECT_EQ(coord_to_index({3, 0}, dim), 3);
  EXPECT_EQ(coord_to_index({0, 1}, dim), 4);
  EXPECT_EQ(coord_to_index({3, 3}, dim), 15);
}

TEST(GridTest, OutOfBoundsChecked) {
  const GridDim dim{3, 3};
  EXPECT_THROW(coord_to_index({3, 0}, dim), CheckError);
  EXPECT_THROW(coord_to_index({0, -1}, dim), CheckError);
  EXPECT_THROW(index_to_coord(9, dim), CheckError);
  EXPECT_FALSE(in_bounds({-1, 0}, dim));
  EXPECT_TRUE(in_bounds({2, 2}, dim));
}

TEST(GridTest, ManhattanDistance) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0);
  EXPECT_EQ(manhattan({3, 1}, {1, 3}), 4);
}

TEST(FloorplanTest, GridFloorplanGeometry) {
  const GridDim dim{4, 4};
  const Floorplan fp = make_grid_floorplan(dim, date05_tile_area());
  EXPECT_EQ(fp.block_count(), 16);
  // Every tile has the paper's 4.36 mm^2 area.
  for (int i = 0; i < fp.block_count(); ++i)
    EXPECT_NEAR(fp.block(i).area(), units::mm2(4.36), 1e-12);
  // Die is gap-free: total block area equals the bounding box.
  double block_area = 0.0;
  for (const Block& b : fp.blocks()) block_area += b.area();
  EXPECT_NEAR(block_area, fp.die_area(), 1e-10);
  // 4x4 of 4.36mm^2 tiles -> ~8.35 mm on a side.
  EXPECT_NEAR(fp.die_width(), 4 * std::sqrt(units::mm2(4.36)), 1e-9);
}

TEST(FloorplanTest, GridAdjacencyCount) {
  // A WxH grid has W*(H-1) horizontal-edge and (W-1)*H vertical-edge
  // adjacencies.
  const GridDim dim{4, 5};
  const Floorplan fp = make_grid_floorplan(dim, 1e-6);
  const int expected = 4 * 4 + 3 * 5;
  EXPECT_EQ(static_cast<int>(fp.adjacencies().size()), expected);
}

TEST(FloorplanTest, AdjacencySharedLengthIsTileSide) {
  const GridDim dim{3, 3};
  const double area = 4e-6;
  const Floorplan fp = make_grid_floorplan(dim, area);
  const double side = std::sqrt(area);
  for (const Adjacency& adj : fp.adjacencies()) {
    EXPECT_NEAR(adj.shared_len, side, 1e-12);
    EXPECT_LT(adj.a, adj.b);
  }
}

TEST(FloorplanTest, AdjacencyMatchesMeshNeighbours) {
  const GridDim dim{4, 4};
  const Floorplan fp = make_grid_floorplan(dim, 1e-6);
  for (const Adjacency& adj : fp.adjacencies()) {
    const GridCoord a = index_to_coord(adj.a, dim);
    const GridCoord b = index_to_coord(adj.b, dim);
    EXPECT_EQ(manhattan(a, b), 1)
        << "blocks " << adj.a << "," << adj.b << " are not mesh neighbours";
    // horizontal flag means side-by-side in x.
    EXPECT_EQ(adj.horizontal, a.y == b.y);
  }
}

TEST(FloorplanTest, RejectsEmptyAndDegenerate) {
  EXPECT_THROW(Floorplan({}), CheckError);
  EXPECT_THROW(Floorplan({Block{"z", 0, 0, 0.0, 1.0}}), CheckError);
}

TEST(FloorplanTest, CustomNonUniformPlan) {
  // An L-shaped two-block plan: 2x1 next to 1x1 sharing a 1m edge.
  std::vector<Block> blocks{{"big", 0, 0, 1, 2}, {"small", 1, 0, 1, 1}};
  const Floorplan fp{std::move(blocks)};
  ASSERT_EQ(fp.adjacencies().size(), 1u);
  EXPECT_NEAR(fp.adjacencies()[0].shared_len, 1.0, 1e-12);
  EXPECT_TRUE(fp.adjacencies()[0].horizontal);
  EXPECT_NEAR(fp.die_width(), 2.0, 1e-12);
  EXPECT_NEAR(fp.die_height(), 2.0, 1e-12);
}

}  // namespace
}  // namespace renoc
