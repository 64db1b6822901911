#include <gtest/gtest.h>

#include "src/decomp/decomposition.hpp"
#include "src/geometry/flue_pipe.hpp"

namespace subsonic {
namespace {

TEST(ActiveRanks, AllActiveOnOpenDomain) {
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 9u);
}

TEST(ActiveRanks, SolidColumnIsDropped) {
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  // First column solid, one node past its edge: its wall touches no fluid.
  mask.fill_box({0, 0, 21, 60}, NodeType::kWall);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 6u);
  for (int r : active) EXPECT_NE(d.coord_x(r), 0);
}

TEST(ActiveRanks, SolidColumnTouchingFluidStaysActive) {
  // All wall, but its last layer borders the fluid of the next column:
  // those wall nodes bounce back what the fluid emits, so the subregion
  // keeps its process.
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  mask.fill_box({0, 0, 20, 60}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 9u);
  // Across a periodic wrap the first column borders the last one.
  mask.fill_box({0, 0, 21, 60}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 6u);
  EXPECT_EQ(active_ranks(d, mask, PeriodicAxes{true, false, false}).size(),
            9u);
  EXPECT_EQ(active_ranks(d, mask, PeriodicAxes{false, true, false}).size(),
            6u);
}

TEST(ActiveRanks, InletCountsAsActive) {
  const Decomposition2D d(Extents2{60, 60}, 3, 3);
  Mask2D mask(Extents2{60, 60}, 1);
  mask.fill_box({0, 0, 21, 60}, NodeType::kWall);
  mask.set(5, 30, NodeType::kInlet);  // one opening in the solid block
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 7u);
}

TEST(ActiveRanks, FluePipeChannelVariantDropsSubregions) {
  // The paper's Figure 2: a (6x4) decomposition where 9 of the 24
  // subregions are entirely walls and only 15 processes are needed.  Our
  // scaled geometry must also drop at least a few subregions.
  const Geometry2D g =
      build_flue_pipe(Extents2{360, 240}, FluePipeVariant::kChannel, 3);
  const Decomposition2D d(Extents2{360, 240}, 6, 4);
  const auto active = active_ranks(d, g.mask);
  EXPECT_LT(active.size(), 24u);
  EXPECT_GE(active.size(), 12u);
}

TEST(ActiveRanks3D, SolidSlabIsDropped) {
  const Decomposition3D d(Extents3{20, 20, 20}, 2, 2, 2);
  Mask3D mask(Extents3{20, 20, 20}, 1);
  // The lower slab solid, one node past its edge.
  mask.fill_box({0, 0, 0, 20, 20, 11}, NodeType::kWall);
  const auto active = active_ranks(d, mask);
  EXPECT_EQ(active.size(), 4u);
  for (int r : active) EXPECT_EQ(d.coord_z(r), 1);
  // Wrapped in z the lower slab borders the top layer's fluid.
  EXPECT_EQ(active_ranks(d, mask, PeriodicAxes{false, false, true}).size(),
            8u);
}

TEST(ActiveRanks3D, SolidSlabTouchingFluidStaysActive) {
  const Decomposition3D d(Extents3{20, 20, 20}, 2, 2, 2);
  Mask3D mask(Extents3{20, 20, 20}, 1);
  mask.fill_box({0, 0, 0, 20, 20, 10}, NodeType::kWall);
  EXPECT_EQ(active_ranks(d, mask).size(), 8u);
}

}  // namespace
}  // namespace subsonic
