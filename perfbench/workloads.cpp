#include "perfbench/workloads.hpp"

#include <stdexcept>

#include "src/geometry/flue_pipe.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using namespace subsonic;

namespace {

/// Places `count` square wall obstacles with sides in [min_side, max_side]
/// at seeded positions.  A candidate is kept only when it and a `margin`
/// ring around it are all plain fluid, so obstacles never touch a wall,
/// the inlet, the outlet or each other.
std::vector<Box2> place_obstacles(Mask2D& mask, std::uint64_t seed, int count,
                                  int min_side, int max_side, int margin) {
  Rng rng(seed);
  const Extents2 e = mask.extents();
  std::vector<Box2> placed;
  for (int attempt = 0; attempt < 10000 && int(placed.size()) < count;
       ++attempt) {
    const int side =
        min_side + static_cast<int>(rng.below(max_side - min_side + 1));
    const int x0 = static_cast<int>(rng.below(e.nx - side));
    const int y0 = static_cast<int>(rng.below(e.ny - side));
    const Box2 box{x0, y0, x0 + side, y0 + side};
    const Box2 ring{x0 - margin, y0 - margin, box.x1 + margin,
                    box.y1 + margin};
    if (ring.x0 < 0 || ring.y0 < 0 || ring.x1 > e.nx || ring.y1 > e.ny)
      continue;
    if (mask.count_box(ring, NodeType::kFluid) != ring.count()) continue;
    mask.fill_box(box, NodeType::kWall);
    placed.push_back(box);
  }
  if (int(placed.size()) < count)
    throw std::runtime_error("could not place the seeded obstacles");
  return placed;
}

/// The paper's Figure-1 flue pipe at its published 800x500 size: the jet,
/// the labium and the resonant pipe, with the stabilizing filter on.
Workload flue_plain(std::uint64_t seed) {
  Workload w;
  w.name = "flue_plain";
  FluidParams& p = w.params;
  p.dt = 1.0;
  p.nu = 0.01;
  p.filter_eps = 0.1;
  Geometry2D geo = build_flue_pipe(Extents2{800, 500}, FluePipeVariant::kBasic,
                                   required_ghost(w.method, true));
  p.inlet_vx = geo.inlet_speed;
  w.mask = std::move(geo.mask);
  w.obstacles = place_obstacles(w.mask, seed, 6, 8, 20, 4);
  w.steps = 120;
  return w;
}

/// A 96x96 closed box driven by a weak body force, over-decomposed into
/// 16x16 blocks (36 blocks, 9 per rank).
Workload box_blocked(std::uint64_t seed) {
  Workload w;
  w.name = "box_blocked";
  FluidParams& p = w.params;
  p.dt = 1.0;
  p.nu = 0.02;
  p.force_x = 1e-5;
  p.force_y = 4e-6;
  const int n = 96;
  w.mask = Mask2D(Extents2{n, n}, required_ghost(w.method, false));
  w.mask.fill_box({0, 0, n, 1}, NodeType::kWall);
  w.mask.fill_box({0, n - 1, n, n}, NodeType::kWall);
  w.mask.fill_box({0, 0, 1, n}, NodeType::kWall);
  w.mask.fill_box({n - 1, 0, n, n}, NodeType::kWall);
  w.obstacles = place_obstacles(w.mask, seed, 3, 6, 12, 2);
  w.block_side = 16;
  w.steps = 600;
  return w;
}

/// box_blocked on the paper's busy workstation: rank 0 runs at a third of
/// its speed, the supervisor rebalances blocks every 50 steps, and every
/// 25 steps an epoch is checkpointed.
Workload box_slow_rebalance(std::uint64_t seed) {
  Workload w = box_blocked(seed);
  w.name = "box_slow_rebalance";
  w.faults = "slow:rank=0,permille=2000";
  w.rebalance_interval = 50;
  w.rebalance_threshold = 1.3;
  w.checkpoint_interval = 25;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "flue_plain", "box_blocked", "box_slow_rebalance"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "flue_plain")
    w = flue_plain(seed);
  else if (name == "box_blocked")
    w = box_blocked(seed);
  else if (name == "box_slow_rebalance")
    w = box_slow_rebalance(seed);
  else
    throw std::invalid_argument("unknown workload: " + name);
  w.fluid_cells = w.mask.count(NodeType::kFluid);
  return w;
}

ProcessRunOptions run_options(const Workload& w, int trace) {
  ProcessRunOptions o;
  o.threads = 1;
  o.checkpoint_interval = w.checkpoint_interval;
  // A blank spec pins "no faults": an empty one would read SUBSONIC_FAULTS.
  o.faults = w.faults.empty() ? " " : w.faults;
  o.trace = trace;
  o.block_side = w.block_side;
  o.rebalance_interval = w.rebalance_interval;
  o.rebalance_threshold = w.rebalance_threshold;
  o.status_port = -1;
  o.launcher = "fork";
  return o;
}

}  // namespace perfbench
