// The benchmark's workloads: each is one whole supervised 2D run, built
// from a seed.  The seed only places interior obstacles; the program under
// test receives the generated mask and FluidParams, nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/geometry/mask.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/solver/params.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  subsonic::Mask2D mask;
  subsonic::FluidParams params;
  subsonic::Method method = subsonic::Method::kLatticeBoltzmann;
  int jx = 2;
  int jy = 2;
  int steps = 0;  ///< integration steps of one timed call
  int block_side = 0;  ///< 0 = monolithic, one subregion per rank
  int rebalance_interval = 0;
  double rebalance_threshold = 1.15;
  int checkpoint_interval = 0;
  std::string faults;  ///< explicit fault spec ("" = none)
  std::int64_t fluid_cells = 0;
  std::vector<subsonic::Box2> obstacles;  ///< the seeded interior obstacles
};

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; the same (name, seed) always gives
/// the same mask and params.  Throws std::invalid_argument for an unknown
/// name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Supervisor options for one call of `w`: one kernel thread per rank, no
/// status endpoint, fork launcher, and the workload's fault spec pinned so
/// the environment cannot add faults.  `trace` is ProcessRunOptions::trace.
subsonic::ProcessRunOptions run_options(const Workload& w, int trace);

}  // namespace perfbench
