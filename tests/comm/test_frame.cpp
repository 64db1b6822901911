// The coalesced ghost frame: encoder/decoder round trip, the decoder's
// rejection of every malformed frame another process could send, and the
// frame tag namespace.
#include "src/comm/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace subsonic {
namespace {

double word(std::uint64_t v) { return std::bit_cast<double>(v); }

std::vector<double> two_segment_frame() {
  FrameWriter w;
  w.begin_segment(make_block_tag(7, 1, 3, 4)).push_back(1.5);
  w.end_segment();
  auto& buf = w.begin_segment(make_block_tag(7, 1, 5, 9));
  buf.push_back(-2.0);
  buf.push_back(3.25);
  w.end_segment();
  return w.finish();
}

/// Runs `fn` and returns the frame_error message it throws ("" if none).
template <typename Fn>
std::string frame_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const frame_error& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(std::vector<double> frame, const char* what) {
  const std::string msg =
      frame_error_of([&] { FrameReader r(std::move(frame), 2); });
  EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find(what), std::string::npos) << msg;
}

TEST(Frame, RoundTripsSegmentsByTag) {
  const std::vector<double> bytes = two_segment_frame();
  EXPECT_EQ(bytes.size(), 1u + 2 + 1 + 2 + 2);
  FrameReader r(bytes, 1);
  EXPECT_EQ(r.segments(), 2u);
  // Taken in the opposite order to the one they were written in.
  const auto b = r.take(make_block_tag(7, 1, 5, 9), 2);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], -2.0);
  EXPECT_EQ(b[1], 3.25);
  const auto a = r.take(make_block_tag(7, 1, 3, 4), 1);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 1.5);
  EXPECT_NO_THROW(r.finish());
}

TEST(Frame, WriterIsReusableAndEmptyFramesDecode) {
  FrameWriter w;
  FrameReader empty(w.finish(), 0);
  EXPECT_EQ(empty.segments(), 0u);
  EXPECT_NO_THROW(empty.finish());
  w.begin_segment(42);
  w.end_segment();  // a zero-length segment is legal
  FrameReader one(w.finish(), 0);
  EXPECT_EQ(one.segments(), 1u);
  EXPECT_EQ(one.take(42, 0).size(), 0u);
  // finish() reset the writer: the next frame starts empty again.
  FrameReader again(w.finish(), 0);
  EXPECT_EQ(again.segments(), 0u);
}

TEST(Frame, PayloadBitsSurviveIncludingNaNs) {
  const double odd[] = {word(0x7FF0000000000001), -0.0, 5e-324};  // sNaN
  FrameWriter w;
  auto& buf = w.begin_segment(1);
  buf.insert(buf.end(), std::begin(odd), std::end(odd));
  w.end_segment();
  FrameReader r(w.finish(), 0);
  const auto got = r.take(1, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(odd[i]));
}

TEST(Frame, RejectsEmptyAndNonFramePayloads) {
  expect_rejected({}, "empty frame");
  expect_rejected({1.0, 2.0, 3.0}, "bad frame magic");
}

TEST(Frame, RejectsTruncatedSegmentHeader) {
  std::vector<double> f = two_segment_frame();
  // Keep the first segment whole and only the tag word of the second.
  f.resize(1 + 2 + 1 + 1);
  expect_rejected(f, "truncated segment header");
}

TEST(Frame, RejectsSegmentCountBeyondTheFrame) {
  std::vector<double> f = two_segment_frame();
  f[0] = word(kFrameMagic << 32 | 0xFFFFFFFFu);
  expect_rejected(f, "segment count exceeds the frame");
}

TEST(Frame, RejectsLengthRunningPastTheEnd) {
  std::vector<double> f = two_segment_frame();
  f[1 + 2 + 1 + 1] = word(3);  // second segment claims 3, holds 2
  expect_rejected(f, "runs past the frame end");
  f[1 + 2 + 1 + 1] = word(~std::uint64_t{0});  // overflow bait
  expect_rejected(f, "runs past the frame end");
}

TEST(Frame, RejectsTrailingWords) {
  std::vector<double> f = two_segment_frame();
  f.push_back(0.0);
  expect_rejected(f, "trailing words");
}

TEST(Frame, RejectsDuplicateTags) {
  FrameWriter w;
  for (int i = 0; i < 2; ++i) {
    w.begin_segment(make_block_tag(1, 0, 2, 3)).push_back(i);
    w.end_segment();
  }
  expect_rejected(w.finish(), "duplicate segment tag");
}

TEST(Frame, RejectsUnexpectedMissingAndMisSizedSegments) {
  {
    // A segment no local link asks for is an error, not silently parked.
    FrameReader r(two_segment_frame(), 3);
    r.take(make_block_tag(7, 1, 3, 4), 1);
    const std::string msg = frame_error_of([&] { r.finish(); });
    EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("no local link expects"), std::string::npos) << msg;
  }
  FrameReader r(two_segment_frame(), 3);
  EXPECT_NE(frame_error_of([&] { r.take(make_block_tag(8, 1, 3, 4), 1); })
                .find("missing segment"),
            std::string::npos);
  EXPECT_NE(frame_error_of([&] { r.take(make_block_tag(7, 1, 3, 4), 2); })
                .find("wrong payload length"),
            std::string::npos);
  r.take(make_block_tag(7, 1, 3, 4), 1);
  EXPECT_NE(frame_error_of([&] { r.take(make_block_tag(7, 1, 3, 4), 1); })
                .find("taken twice"),
            std::string::npos);
}

TEST(Frame, EveryTruncationOfAValidFrameIsRejected) {
  const std::vector<double> f = two_segment_frame();
  for (std::size_t n = 0; n < f.size(); ++n) {
    std::vector<double> cut(f.begin(), f.begin() + static_cast<long>(n));
    EXPECT_THROW(FrameReader(cut, 0), frame_error) << n;
  }
}

// Frame tags must stay disjoint from plain (make_tag) and block
// (make_block_tag) tags over every step, phase and direction the runtimes
// use — including the sync phase 1023 and the 2D sync epochs starting at
// step 0, which every BlockedDriver on one transport shares with plain
// point-to-point traffic — and distinct from each other.
TEST(FrameTag, DisjointFromPlainAndBlockTags) {
  const long steps[] = {0, 1, 2, 1023, 1L << 20, (1L << 20) + 7,
                        (1L << 24) - 1};
  const int phases[] = {0, 1, 2, 3, 4, 1023};
  const int blocks[] = {0, 1, 35, 4095, kMaxBlockId};
  std::vector<MessageTag> frames;
  for (long s : steps)
    for (int ph : phases) {
      const MessageTag f = make_frame_tag(s, ph);
      EXPECT_EQ(f >> kBlockFieldShift, kFrameBlockField);
      for (long s2 : steps)
        for (int ph2 : phases)
          for (int dir = 0; dir < 27; ++dir) {
            ASSERT_NE(f, make_tag(s2, ph2, dir));
            for (int b : blocks) ASSERT_NE(f, make_block_tag(s2, ph2, dir, b));
          }
      frames.push_back(f);
    }
  std::sort(frames.begin(), frames.end());
  EXPECT_EQ(std::adjacent_find(frames.begin(), frames.end()), frames.end());
}

}  // namespace
}  // namespace subsonic
