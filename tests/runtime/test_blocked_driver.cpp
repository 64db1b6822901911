// The threaded driver: one block per rank (the paper's tiling) or many
// small blocks per rank, ghost exchange at block granularity — and still
// bit-identical to the serial run, under any owner map.
#include "src/runtime/blocked_driver.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "src/comm/in_memory_transport.hpp"
#include "src/runtime/serial2d.hpp"
#include "src/runtime/serial3d.hpp"

namespace subsonic {
namespace {

std::string make_workdir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/blocked_" +
                          name + "_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  mask.fill_box({12, 8, 18, 14}, NodeType::kWall);  // obstacle
  return mask;
}

/// Bitwise comparison of a blocked driver's gathered fields against an
/// uninterrupted serial run of the same problem.
void expect_matches_serial2d(BlockedDriver<2>& driver, const Mask2D& mask,
                             const FluidParams& p, Method method, int steps) {
  SerialDriver2D serial(mask, p, method);
  serial.run(steps);
  EXPECT_EQ(driver.step(), steps);
  const auto rho = driver.gather(FieldId::kRho);
  const auto vx = driver.gather(FieldId::kVx);
  const auto vy = driver.gather(FieldId::kVy);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x) {
      ASSERT_EQ(rho(x, y), serial.domain().rho()(x, y)) << x << "," << y;
      ASSERT_EQ(vx(x, y), serial.domain().vx()(x, y)) << x << "," << y;
      ASSERT_EQ(vy(x, y), serial.domain().vy()(x, y)) << x << "," << y;
    }
}

TEST(BlockedDriver, SingleRankManyBlocksMatchesSerialBitwiseLB) {
  const int nx = 36, ny = 24;
  FluidParams p;
  p.dt = 1.0;
  p.nu = 0.02;
  p.inlet_vx = 0.06;
  Mask2D mask = closed_box(nx, ny, 1);
  mask.fill_box({0, 10, 1, 14}, NodeType::kInlet);
  mask.fill_box({nx - 1, 10, nx, 14}, NodeType::kOutlet);

  BlockedDriver<2> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{1, 1, 1}, /*block_side=*/8);
  EXPECT_GT(driver.blocks().block_count(), 4);  // genuinely over-decomposed
  driver.run(10);
  expect_matches_serial2d(driver, mask, p, Method::kLatticeBoltzmann, 10);
}

TEST(BlockedDriver, RankGridWithBlocksMatchesSerialBitwiseLB) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<2> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 2, 1}, /*block_side=*/8);
  driver.run(12);
  expect_matches_serial2d(driver, mask, p, Method::kLatticeBoltzmann, 12);
}

TEST(BlockedDriver, RankGridWithBlocksMatchesSerialBitwiseFD) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 0.5;
  BlockedDriver<2> driver(mask, p, Method::kFiniteDifference,
                          GridShape{2, 1, 1}, /*block_side=*/8);
  driver.run(10);
  expect_matches_serial2d(driver, mask, p, Method::kFiniteDifference, 10);
}

TEST(BlockedDriver, ThreadCountIsBitwiseNeutral) {
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<2> one(mask, p, Method::kLatticeBoltzmann, GridShape{2, 2, 1},
                       8, nullptr, Scheduling::kOverlap, /*threads=*/1);
  BlockedDriver<2> three(mask, p, Method::kLatticeBoltzmann,
                         GridShape{2, 2, 1}, 8, nullptr, Scheduling::kOverlap,
                         /*threads=*/3);
  one.run(8);
  three.run(8);
  const auto a = one.gather(FieldId::kVx);
  const auto b = three.gather(FieldId::kVx);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x)
      ASSERT_EQ(a(x, y), b(x, y)) << x << "," << y;
}

TEST(BlockedDriver, ThreeDimensionalBlocksMatchSerialBitwise) {
  Mask3D mask(Extents3{16, 12, 10}, 1);
  mask.fill_box({6, 4, 3, 10, 8, 7}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  BlockedDriver<3> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 1, 1}, /*block_side=*/6);
  driver.run(6);
  SerialDriver3D serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(6);
  const auto rho = driver.gather(FieldId::kRho);
  const auto vz = driver.gather(FieldId::kVz);
  for (int z = 0; z < 10; ++z)
    for (int y = 0; y < 12; ++y)
      for (int x = 0; x < 16; ++x) {
        ASSERT_EQ(rho(x, y, z), serial.domain().rho()(x, y, z));
        ASSERT_EQ(vz(x, y, z), serial.domain().vz()(x, y, z));
      }
}

TEST(BlockedDriver, OwnerMapRewriteMidRunIsBitwise) {
  // Run 12 steps straight; separately run 6, save the blocks, restart a
  // new driver whose owner map moved blocks to the other rank, restore,
  // run 6 more.  Block assignment must not affect a single bit.
  const Mask2D mask = closed_box(32, 24, 1);
  FluidParams p;
  p.dt = 1.0;
  const Method m = Method::kLatticeBoltzmann;
  const int ghost = required_ghost(m, p.filter_eps > 0.0);

  BlockedDriver<2> straight(mask, p, m, GridShape{2, 1, 1}, 8);
  straight.run(12);

  BlockDecomposition2D bd(mask, 2, 1, 8, ghost);
  BlockedDriver<2> first(mask, p, m, bd);
  first.run(6);
  const std::string dir = make_workdir("move");
  first.save_blocks(dir);

  // Rebalance: push every block but one of rank 0 over to rank 1.
  std::vector<int> owner = bd.owner_map();
  bool kept_one = false;
  for (int b = 0; b < bd.block_count(); ++b) {
    if (owner[b] != 0) continue;
    if (!kept_one) {
      kept_one = true;
      continue;
    }
    owner[b] = 1;
  }
  bd.set_owner_map(owner);
  BlockedDriver<2> second(mask, p, m, bd);
  second.restore_blocks(dir);
  EXPECT_EQ(second.step(), 6);
  second.run(6);

  const auto a = straight.gather(FieldId::kVx);
  const auto b = second.gather(FieldId::kVx);
  const auto ar = straight.gather(FieldId::kRho);
  const auto br = second.gather(FieldId::kRho);
  for (int y = 0; y < mask.extents().ny; ++y)
    for (int x = 0; x < mask.extents().nx; ++x) {
      ASSERT_EQ(a(x, y), b(x, y)) << x << "," << y;
      ASSERT_EQ(ar(x, y), br(x, y)) << x << "," << y;
    }
}

// A subregion or block that is all wall but borders fluid keeps running:
// its wall layer bounces back what the fluid emits, so the neighbour's
// ghost copy of that layer must evolve exactly as in the serial run.  The
// body force makes a stale wall layer show in every field.
TEST(BlockedDriver, SolidSubregionTouchingFluidMatchesSerialBitwise) {
  Mask2D mask = closed_box(30, 20, 1);
  mask.fill_box({0, 0, 10, 20}, NodeType::kWall);  // rank 0 all wall
  FluidParams p;
  p.dt = 1.0;
  p.force_x = 1e-5;
  p.force_y = 4e-6;
  for (int side : {0, 5}) {
    SCOPED_TRACE(side);
    BlockedDriver<2> driver(mask, p, Method::kLatticeBoltzmann,
                            GridShape{3, 1, 1}, side);
    // The blocks along x = 5..9 border the fluid at x = 10 and stay; at
    // side 5 the ones along x = 0..4 touch only wall and are dropped.
    for (int b = 0; b < driver.blocks().block_count(); ++b) {
      const Box2 box = driver.blocks().box(b);
      EXPECT_EQ(driver.blocks().block_active(b), box.x1 >= 10) << b;
    }
    driver.run(40);
    expect_matches_serial2d(driver, mask, p, Method::kLatticeBoltzmann, 40);
  }
}

long exchange_phases(const std::vector<Phase>& schedule) {
  return std::count_if(schedule.begin(), schedule.end(), [](const Phase& ph) {
    return ph.kind == Phase::Kind::kExchange;
  });
}

// Ghost strips bound for another rank travel as one coalesced frame per
// rank pair per exchange phase, however many block edges the pair shares.
// On a 2x2 rank grid every rank borders the other three (the diagonal one
// through the corner), so 4 x 3 = 12 directed rank pairs each carry one
// message per exchange phase, and the construction-time sync one more.
TEST(BlockedDriver, OneFramePerRankPairPerExchangePhase) {
  const Mask2D mask = closed_box(96, 96, 1);
  const long pairs = 4 * 3;
  const int steps = 10;
  struct Case {
    Method method;
    double dt;
    Scheduling sched;
  };
  for (const Case& c : {Case{Method::kLatticeBoltzmann, 1.0,
                             Scheduling::kOverlap},
                        Case{Method::kLatticeBoltzmann, 1.0,
                             Scheduling::kLegacy},
                        Case{Method::kFiniteDifference, 0.5,
                             Scheduling::kOverlap}}) {
    SCOPED_TRACE(static_cast<int>(c.method) * 10 + static_cast<int>(c.sched));
    FluidParams p;
    p.dt = c.dt;
    auto transport = std::make_shared<InMemoryTransport>(4);
    BlockedDriver<2> driver(mask, p, c.method, GridShape{2, 2, 1},
                            /*block_side=*/16, transport, c.sched);
    ASSERT_EQ(driver.blocks().block_count(), 36);
    EXPECT_EQ(transport->messages_delivered(), pairs);  // the initial sync
    driver.run(steps);
    EXPECT_EQ(transport->messages_delivered(),
              pairs * (1 + steps * exchange_phases(make_schedule2d(c.method))));
    expect_matches_serial2d(driver, mask, p, c.method, steps);
  }
}

TEST(BlockedDriver, OneFramePerRankPairPerExchangePhase3D) {
  // 2x2x2 ranks over 4x4x4 blocks: every rank borders the other seven.
  Mask3D mask(Extents3{24, 24, 24}, 1);
  mask.fill_box({9, 9, 9, 15, 15, 15}, NodeType::kWall);
  FluidParams p;
  p.dt = 1.0;
  const long pairs = 8 * 7;
  const int steps = 4;
  auto transport = std::make_shared<InMemoryTransport>(8);
  BlockedDriver<3> driver(mask, p, Method::kLatticeBoltzmann,
                          GridShape{2, 2, 2}, /*block_side=*/6, transport);
  ASSERT_EQ(driver.blocks().block_count(), 64);
  EXPECT_EQ(transport->messages_delivered(), pairs);
  driver.run(steps);
  EXPECT_EQ(transport->messages_delivered(),
            pairs * (1 + steps * exchange_phases(make_schedule3d(
                                     Method::kLatticeBoltzmann))));
  SerialDriver3D serial(mask, p, Method::kLatticeBoltzmann);
  serial.run(steps);
  const auto rho = driver.gather(FieldId::kRho);
  const auto vx = driver.gather(FieldId::kVx);
  for (int z = 0; z < 24; ++z)
    for (int y = 0; y < 24; ++y)
      for (int x = 0; x < 24; ++x) {
        ASSERT_EQ(rho(x, y, z), serial.domain().rho()(x, y, z));
        ASSERT_EQ(vx(x, y, z), serial.domain().vx()(x, y, z));
      }
}

}  // namespace
}  // namespace subsonic
