// Tests of the benchmark's seeded workload generator and metric names.
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "perfbench/metrics.hpp"
#include "perfbench/workloads.hpp"

namespace perfbench {
namespace {

using subsonic::Extents2;

bool same_mask(const subsonic::Mask2D& a, const subsonic::Mask2D& b) {
  const Extents2 e = a.extents();
  if (e.nx != b.extents().nx || e.ny != b.extents().ny) return false;
  for (int y = 0; y < e.ny; ++y)
    for (int x = 0; x < e.nx; ++x)
      if (a(x, y) != b(x, y)) return false;
  return true;
}

/// 1 to 64 letters, digits, '_', '.' and '-', starting with a letter or
/// digit.
bool valid_metric_name(const std::string& name) {
  static const std::regex legal("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name, legal);
}

bool same_params(const subsonic::FluidParams& a,
                 const subsonic::FluidParams& b) {
  return a.dx == b.dx && a.dt == b.dt && a.nu == b.nu && a.rho0 == b.rho0 &&
         a.force_x == b.force_x && a.force_y == b.force_y &&
         a.inlet_vx == b.inlet_vx && a.inlet_vy == b.inlet_vy &&
         a.filter_eps == b.filter_eps;
}

TEST(Workloads, SameSeedGivesIdenticalMaskAndParams) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 7);
    EXPECT_TRUE(same_mask(a.mask, b.mask)) << name;
    EXPECT_TRUE(same_params(a.params, b.params)) << name;
    EXPECT_EQ(a.fluid_cells, b.fluid_cells) << name;
    EXPECT_EQ(a.steps, b.steps) << name;
  }
}

TEST(Workloads, DifferentSeedsGiveDifferentObstacleLayouts) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 1);
    const Workload b = make_workload(name, 2);
    EXPECT_FALSE(same_mask(a.mask, b.mask)) << name;
    EXPECT_GT(a.fluid_cells, 0) << name;
    EXPECT_GT(b.fluid_cells, 0) << name;
    std::printf("%s: seed 1 -> %lld fluid cells, seed 2 -> %lld\n",
                name.c_str(), static_cast<long long>(a.fluid_cells),
                static_cast<long long>(b.fluid_cells));
  }
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(make_workload("nope", 1), std::invalid_argument);
}

TEST(Metrics, NamesUseOnlyTheAllowedCharacters) {
  for (const MetricDef& m : kEndToEnd) EXPECT_TRUE(valid_metric_name(m.name));
  for (const MetricDef& m : kPerLayer) EXPECT_TRUE(valid_metric_name(m.name));
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Metrics, ManifestListsEveryReportedMetric) {
  std::ifstream in(PERFBENCH_MANIFEST);
  ASSERT_TRUE(in.good()) << PERFBENCH_MANIFEST;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string manifest = ss.str();
  for (const MetricDef& m : kEndToEnd)
    EXPECT_NE(manifest.find("\"name\": \"" + std::string(m.name) + "\""),
              std::string::npos)
        << m.name;
  for (const MetricDef& m : kPerLayer)
    EXPECT_NE(manifest.find("\"name\": \"" + std::string(m.name) + "\""),
              std::string::npos)
        << m.name;
  for (const std::string& name : workload_names())
    EXPECT_NE(manifest.find("\"name\": \"" + name + "\""), std::string::npos)
        << name;
}

}  // namespace
}  // namespace perfbench
