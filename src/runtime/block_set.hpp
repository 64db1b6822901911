// One rank's share of an over-decomposed run: the list of blocks the
// owner map assigns to this rank, each a full Domain over its block box,
// stepped phase-synchronously.  The per-step structure is the familiar
// overlap pattern lifted from one subregion to a block list —
//
//   for every block: compute the boundary band
//   post the phase's sends: one coalesced frame per peer rank
//   for every block: compute the interior
//   complete the receives: one frame per peer rank, then the mailbox
//
// Ghost strips between two blocks of this rank go through an in-rank
// mailbox keyed by make_block_tag.  Every strip bound for another rank is
// packed as one segment, keyed by the same block tag, of the single frame
// (src/comm/frame.hpp) this rank sends that rank in the phase under
// make_frame_tag — so a rank pair exchanges exactly one message per
// exchange phase, however many block edges it shares, and the receiver
// splits the frame back into the per-link payloads.  Kernels are untouched
// and see exactly the ghost data a one-subregion-per-rank run would
// supply, which is what makes runs bitwise equal across tilings and to
// the serial run (tested).  Compute time is charged per block ("compute.block_<id>"),
// giving the rebalancer the per-block T_calc its telemetry loop feeds on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/frame.hpp"
#include "src/comm/transport.hpp"
#include "src/runtime/domain_traits.hpp"
#include "src/telemetry/telemetry.hpp"

namespace subsonic {

template <int Dim>
class BlockSet {
 public:
  using Traits = DomainTraits<Dim>;
  using Mask = typename Traits::Mask;
  using Domain = typename Traits::Domain;
  using BlockDecomp = typename Traits::BlockDecomp;
  using LinkPlan = typename Traits::LinkPlan;

  /// Inter-rank hooks: send(dst_rank, tag, payload) and
  /// recv(src_rank, tag) -> payload, typically bound to a Transport or a
  /// TcpEndpoint.  Each carries one coalesced frame per peer rank and
  /// exchange phase; never invoked for intra-rank block pairs.
  using SendFn =
      std::function<void(int, MessageTag, std::vector<double>)>;
  using RecvFn = std::function<std::vector<double>(int, MessageTag)>;

  /// Builds one Domain per block `bd` assigns to `rank` (ascending block
  /// id).  `tel` must outlive the set; per-block compute spans and the
  /// rank's step counter are charged into it.
  BlockSet(const Mask& mask, const FluidParams& params, Method method,
           const BlockDecomp& bd, int rank, int threads,
           telemetry::Session* tel);

  int rank() const { return rank_; }
  int ghost() const { return ghost_; }
  const BlockDecomp& blocks() const { return bd_; }

  int local_count() const { return static_cast<int>(locals_.size()); }
  /// Global block ids of this rank, ascending.
  const std::vector<int>& block_ids() const { return ids_; }
  Domain& domain(int local_index) { return *locals_[local_index].domain; }
  const Domain& domain(int local_index) const {
    return *locals_[local_index].domain;
  }
  /// Domain of global block `block` (must be owned by this rank).
  Domain& domain_of_block(int block);

  /// Common step counter of every local block.
  long step() const;

  /// One integration step of every local block.  `slow_permille` > 0
  /// injects the slow-host fault: each compute phase is followed by a
  /// busy-spin of elapsed * permille / 1000, charged into the same
  /// per-block compute timer so the telemetry sees the slow rank exactly
  /// as it would see a genuinely slow CPU.
  void step_once(Scheduling sched, const SendFn& send, const RecvFn& recv,
                 int slow_permille = 0);

  /// Full-state ghost synchronization of every field (the blocked
  /// reinitialize / cohort-entry handshake); `sync_step` is the tag's step
  /// component and must agree across ranks.
  void sync_all_fields(long sync_step, const SendFn& send,
                       const RecvFn& recv);

 private:
  struct LocalBlock {
    int id = -1;
    std::unique_ptr<Domain> domain;
    std::vector<LinkPlan> links;  ///< peer = neighbouring *block* id
    std::string compute_timer;    ///< "compute.block_<id>"
  };
  /// One link of one local block.
  struct LinkRef {
    int local = -1;  ///< index into locals_
    int link = -1;   ///< index into that block's links
  };
  /// A rank this rank shares block edges with: the links whose far block
  /// it owns, in block then link order, and the frame encoder for them.
  struct PeerRank {
    int rank = -1;
    std::vector<LinkRef> links;
    FrameWriter outbox;
  };

  void post_sends(const std::vector<FieldId>& fields, long step, int phase,
                  const SendFn& send);
  void complete_recvs(const std::vector<FieldId>& fields, long step,
                      int phase, const RecvFn& recv);

  BlockDecomp bd_;
  FluidParams params_;
  Method method_;
  int rank_ = -1;
  int ghost_ = 1;
  std::vector<Phase> schedule_;
  std::vector<int> ids_;
  std::vector<LocalBlock> locals_;
  std::vector<LinkRef> local_links_;  ///< links between blocks of this rank
  std::vector<PeerRank> peers_;       ///< ascending rank
  /// Intra-rank mailbox, keyed by the sender's full block tag.  Sends of a
  /// phase always precede its receives, so a lookup never misses.
  std::map<MessageTag, std::vector<double>> mailbox_;
  telemetry::Session* tel_ = nullptr;
};

extern template class BlockSet<2>;
extern template class BlockSet<3>;

}  // namespace subsonic
