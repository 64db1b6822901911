// The cohort.spec reader: an exec-launched child rebuilds its whole world
// from these bytes, so every malformed buffer must fail with a
// runtime_error naming the defect — before anything the buffer cannot
// back is allocated, and without reading past its end.  CI runs these
// under ASan+UBSan.
#include "src/runtime/cohort_spec.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace subsonic::cohort {
namespace {

// Byte offsets of the version 2 layout: magic, version, dim, method,
// block_side, jx, jy, jz, twelve doubles of params, three periodic flags,
// then nx, ny, nz, ghost and the padded mask, one byte per node.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kMethodAt = 12;
constexpr std::size_t kNxAt = 140;
constexpr std::size_t kNyAt = 144;
constexpr std::size_t kNzAt = 148;
constexpr std::size_t kGhostAt = 152;
constexpr std::size_t kMaskAt = 156;

CohortSpec sample2d() {
  Mask2D mask(Extents2{6, 4}, 1);
  mask.fill_box({0, 0, 6, 1}, NodeType::kWall);
  mask.fill_box({0, 1, 1, 3}, NodeType::kInlet);
  mask.fill_box({5, 1, 6, 3}, NodeType::kOutlet);
  CohortSpec spec;
  spec.set_mask(mask);
  spec.method = Method::kFiniteDifference;
  spec.block_side = 3;
  spec.grid = GridShape{2, 1, 1};
  spec.params.nu = 0.03;
  spec.params.filter_eps = 0.1;
  spec.params.periodic_y = true;
  spec.owner = {0, 1, -1, 1};
  return spec;
}

CohortSpec sample3d() {
  Mask3D mask(Extents3{4, 3, 2}, 2);
  mask.fill_box({0, 0, 0, 4, 3, 1}, NodeType::kWall);
  CohortSpec spec;
  spec.set_mask(mask);
  spec.grid = GridShape{1, 1, 2};
  spec.params.force_z = 1e-5;
  return spec;
}

void put_i32_at(std::vector<char>& bytes, std::size_t at, std::int32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// The reader's error message for `bytes` ("" when it parses).
std::string error_of(const std::vector<char>& bytes) {
  try {
    deserialize_cohort_spec(bytes.data(), bytes.size());
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CohortSpec, RoundTripsBothDimensions) {
  const CohortSpec a = sample2d();
  const std::vector<char> bytes = serialize_cohort_spec(a);
  const CohortSpec b = deserialize_cohort_spec(bytes.data(), bytes.size());
  EXPECT_EQ(b.dim, 2);
  EXPECT_EQ(b.method, Method::kFiniteDifference);
  EXPECT_EQ(b.block_side, 3);
  EXPECT_EQ(b.grid.jx, 2);
  EXPECT_EQ(b.params.nu, 0.03);
  EXPECT_TRUE(b.params.periodic_y);
  EXPECT_EQ(b.owner, a.owner);
  for (int y = -1; y < 5; ++y)
    for (int x = -1; x < 7; ++x)
      EXPECT_EQ(b.mask2(x, y), a.mask2(x, y)) << x << "," << y;
  EXPECT_EQ(serialize_cohort_spec(b), bytes);

  const std::vector<char> bytes3 = serialize_cohort_spec(sample3d());
  const CohortSpec c = deserialize_cohort_spec(bytes3.data(), bytes3.size());
  EXPECT_EQ(c.dim, 3);
  EXPECT_EQ(c.mask3.ghost(), 2);
  EXPECT_TRUE(c.owner.empty());
  EXPECT_EQ(serialize_cohort_spec(c), bytes3);
}

TEST(CohortSpec, RejectsEveryTruncation) {
  for (const CohortSpec& spec : {sample2d(), sample3d()}) {
    const std::vector<char> bytes = serialize_cohort_spec(spec);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      // A buffer of exactly `len` bytes, so ASan flags any read past it.
      const std::vector<char> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
      EXPECT_NE(error_of(cut), "") << "dim " << spec.dim << ", " << len
                                   << " of " << bytes.size() << " bytes";
    }
  }
}

TEST(CohortSpec, RejectsAHugeOwnerCountBeforeAllocating) {
  std::vector<char> bytes = serialize_cohort_spec(sample2d());
  const std::size_t owners_at = bytes.size() - 4 * sizeof(std::int32_t) - 4;
  put_i32_at(bytes, owners_at, -1);  // 0xffffffff owners
  EXPECT_NE(error_of(bytes).find("truncated"), std::string::npos)
      << error_of(bytes);
}

TEST(CohortSpec, RejectsHugeExtentsBeforeAllocating) {
  const std::vector<char> base = serialize_cohort_spec(sample2d());
  struct Case {
    std::size_t at;
    std::int32_t value;
    const char* error;
  };
  // Padded extents beyond int overflow; extents that fit int but need
  // more mask bytes than the buffer holds are a truncation.
  const Case cases[] = {{kNxAt, INT_MAX, "bad mask geometry"},
                        {kNyAt, INT_MAX - 1, "bad mask geometry"},
                        {kGhostAt, INT_MAX / 2, "bad mask geometry"},
                        {kNxAt, 1 << 20, "truncated"},
                        {kNyAt, 1 << 30, "truncated"}};
  for (const Case& c : cases) {
    std::vector<char> bytes = base;
    put_i32_at(bytes, c.at, c.value);
    EXPECT_NE(error_of(bytes).find(c.error), std::string::npos)
        << "offset " << c.at << " = " << c.value << ": " << error_of(bytes);
  }
  // Two large axes whose product would overflow 32 bits.
  std::vector<char> bytes = base;
  put_i32_at(bytes, kNxAt, 1 << 20);
  put_i32_at(bytes, kNyAt, 1 << 20);
  EXPECT_NE(error_of(bytes).find("truncated"), std::string::npos);

  std::vector<char> bytes3 = serialize_cohort_spec(sample3d());
  put_i32_at(bytes3, kNzAt, INT_MAX);
  EXPECT_NE(error_of(bytes3).find("bad mask geometry"), std::string::npos);
  put_i32_at(bytes3, kNzAt, 1 << 16);
  EXPECT_NE(error_of(bytes3).find("truncated"), std::string::npos);
}

TEST(CohortSpec, RejectsAnUnknownMethodOrNodeType) {
  const std::vector<char> base = serialize_cohort_spec(sample2d());
  for (const std::int32_t method : {2, -1}) {
    std::vector<char> bytes = base;
    put_i32_at(bytes, kMethodAt, method);
    EXPECT_NE(error_of(bytes).find("bad method"), std::string::npos)
        << method;
  }
  for (const std::size_t node : {kMaskAt, kMaskAt + 9}) {
    for (const unsigned char value : {4, 0xff}) {
      std::vector<char> bytes = base;
      bytes[node] = static_cast<char>(value);
      EXPECT_NE(error_of(bytes).find("bad node type"), std::string::npos)
          << "node byte " << node << " = " << int{value};
    }
  }
}

TEST(CohortSpec, RejectsATrailingByteAndTheOldVersion) {
  std::vector<char> bytes = serialize_cohort_spec(sample2d());
  bytes.push_back(0);
  EXPECT_NE(error_of(bytes).find("trailing bytes"), std::string::npos);

  // Version 1 specs carried a field this reader no longer has.
  std::vector<char> old = serialize_cohort_spec(sample2d());
  put_i32_at(old, kVersionAt, 1);
  EXPECT_NE(error_of(old).find("unsupported version"), std::string::npos);
}

}  // namespace
}  // namespace subsonic::cohort
