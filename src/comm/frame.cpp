#include "src/comm/frame.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "src/util/check.hpp"

namespace subsonic {

namespace {

double word(std::uint64_t v) { return std::bit_cast<double>(v); }
std::uint64_t word(double d) { return std::bit_cast<std::uint64_t>(d); }

constexpr std::size_t kSegmentHeader = 2;  // tag, payload length

}  // namespace

std::vector<double>& FrameWriter::begin_segment(MessageTag tag) {
  SUBSONIC_REQUIRE_MSG(open_ == 0, "previous frame segment still open");
  if (buf_.empty()) {
    buf_.reserve(last_size_);
    buf_.push_back(0.0);  // frame header, written by finish()
  }
  buf_.push_back(word(tag));
  open_ = buf_.size();
  buf_.push_back(0.0);  // payload length, written by end_segment()
  return buf_;
}

void FrameWriter::end_segment() {
  SUBSONIC_REQUIRE_MSG(open_ != 0, "no frame segment open");
  buf_[open_] = word(static_cast<std::uint64_t>(buf_.size() - open_ - 1));
  open_ = 0;
  ++segments_;
}

std::vector<double> FrameWriter::finish() {
  SUBSONIC_REQUIRE_MSG(open_ == 0, "frame segment still open");
  SUBSONIC_REQUIRE(segments_ <= 0xFFFFFFFFu);
  if (buf_.empty()) buf_.push_back(0.0);
  buf_[0] = word(kFrameMagic << 32 | segments_);
  last_size_ = buf_.size();
  segments_ = 0;
  std::vector<double> out;
  out.swap(buf_);
  return out;
}

FrameReader::FrameReader(std::vector<double> frame, int src_rank)
    : frame_(std::move(frame)), src_(src_rank) {
  if (frame_.empty()) fail("empty frame", 0);
  const std::uint64_t header = word(frame_[0]);
  if (header >> 32 != kFrameMagic) fail("bad frame magic", 0);
  const std::size_t n = header & 0xFFFFFFFFu;
  // Every segment needs at least its two header words, so a count the
  // remaining words cannot hold is rejected before anything is reserved.
  if (n > (frame_.size() - 1) / kSegmentHeader)
    fail("segment count exceeds the frame", 0);
  segs_.reserve(n);
  std::size_t pos = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (frame_.size() - pos < kSegmentHeader)
      fail("truncated segment header", 0);
    Segment s;
    s.tag = word(frame_[pos]);
    const std::uint64_t count = word(frame_[pos + 1]);
    pos += kSegmentHeader;
    if (count > frame_.size() - pos)
      fail("segment runs past the frame end", s.tag);
    s.offset = pos;
    s.count = static_cast<std::size_t>(count);
    pos += s.count;
    segs_.push_back(s);
  }
  if (pos != frame_.size()) fail("trailing words after the last segment", 0);
  std::sort(segs_.begin(), segs_.end(),
            [](const Segment& a, const Segment& b) { return a.tag < b.tag; });
  for (std::size_t i = 1; i < segs_.size(); ++i)
    if (segs_[i].tag == segs_[i - 1].tag)
      fail("duplicate segment tag", segs_[i].tag);
}

std::span<const double> FrameReader::take(MessageTag tag, std::size_t count) {
  const auto it = std::lower_bound(
      segs_.begin(), segs_.end(), tag,
      [](const Segment& s, MessageTag t) { return s.tag < t; });
  if (it == segs_.end() || it->tag != tag) fail("missing segment", tag);
  if (it->taken) fail("segment taken twice", tag);
  if (it->count != count) fail("segment has the wrong payload length", tag);
  it->taken = true;
  return {frame_.data() + it->offset, it->count};
}

void FrameReader::finish() const {
  for (const Segment& s : segs_)
    if (!s.taken) fail("segment no local link expects", s.tag);
}

void FrameReader::fail(const char* what, MessageTag tag) const {
  std::string msg = "frame from rank " + std::to_string(src_) + ": " + what;
  if (tag != 0) msg += " (tag " + std::to_string(tag) + ")";
  throw frame_error(msg);
}

}  // namespace subsonic
