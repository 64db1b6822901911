// Coalesced ghost frames: one transport message carrying every ghost strip
// one rank sends another in one exchange phase, the per-process buffer
// aggregation of patch-based LB codes (Feichtinger et al.) and the paper's
// "one boundary message per neighbour per phase" (section 4.2).  The frame
// is a sequence of segments, each keyed by the tag the strip would have
// travelled under on its own (make_block_tag), so the receiver can split it
// back into exactly the per-link payloads the sender packed.
//
// Layout, in 64-bit words carried as the doubles of one payload (header
// words hold unsigned integers bit for bit, never arithmetic values):
//
//   word 0        kFrameMagic << 32 | segment count
//   per segment:  tag, payload length n, then the n payload doubles
//
// A frame arrives from another process, so FrameReader treats it as
// hostile: every length is checked against the words that remain before
// anything is read, and any malformation is a frame_error naming the
// source rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

/// A received frame is malformed or does not match what the receiver
/// expects (truncated header, length past the end, trailing words,
/// duplicate / unknown / missing tag, wrong payload length).  The message
/// names the source rank.
class frame_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// High half of word 0 ("SSFR"); a payload that is not a frame fails here.
inline constexpr std::uint64_t kFrameMagic = 0x53534652;

/// Encoder for one frame.  Reusable: finish() hands the frame over and
/// leaves the writer empty, with capacity for a frame of the same size.
class FrameWriter {
 public:
  /// Opens a segment keyed by `tag`.  Append exactly its payload to the
  /// returned buffer, then close it with end_segment().
  std::vector<double>& begin_segment(MessageTag tag);
  void end_segment();

  /// Returns the finished frame and resets the writer.
  std::vector<double> finish();

 private:
  std::vector<double> buf_;
  std::size_t open_ = 0;  ///< index of the open segment's length word, or 0
  std::size_t segments_ = 0;
  std::size_t last_size_ = 0;
};

/// Bounds-checked decoder for one frame received from `src_rank`.  The
/// constructor validates the structure; take() then hands out each
/// segment's payload once, and finish() insists every segment was taken.
class FrameReader {
 public:
  FrameReader(std::vector<double> frame, int src_rank);

  std::size_t segments() const { return segs_.size(); }

  /// Payload of the segment keyed by `tag`, which must hold exactly
  /// `count` doubles.  Throws when the tag is absent or already taken.
  std::span<const double> take(MessageTag tag, std::size_t count);

  /// Throws when a segment was never taken: a tag no local link expects.
  void finish() const;

 private:
  struct Segment {
    MessageTag tag = 0;
    std::size_t offset = 0;
    std::size_t count = 0;
    bool taken = false;
  };

  [[noreturn]] void fail(const char* what, MessageTag tag) const;

  std::vector<double> frame_;
  std::vector<Segment> segs_;  ///< sorted by tag
  int src_ = -1;
};

}  // namespace subsonic
