// One process's end of the paper's TCP/IP fabric (section 4.2).  Unlike
// TcpTransport — which hosts every rank inside one process for the
// threaded runtime — a TcpEndpoint owns exactly one rank: it binds its own
// listening socket, appends "rank port" to the shared registry file under
// a lock, resolves peers by polling the same file, and opens channels with
// the hello handshake.  This is the transport the fork()-based process
// runtime uses, where each subregion really is a separate UNIX process.
//
// The endpoint starts no thread: send() writes each frame from the
// caller's thread, and bytes the socket does not take wait in a per-peer
// queue that every blocking wait (recv, accept, flush) drains, so a rank
// parked on one peer never holds back bytes another peer needs.
//
// Failure semantics (the robustness layer): connects retry with backoff
// while a slow peer is still coming up, sends are SIGPIPE-safe, and an
// optional recv deadline converts a dead neighbour into a peer_lost_error
// instead of an eternal block — so the supervising parent always gets a
// clean child exit to act on.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/transport.hpp"

namespace subsonic {

namespace rendezvous {
class Client;
}

namespace telemetry {
class Counter;
}

struct TcpEndpointOptions {
  /// Upper bound on any single recv() call, covering both the accept of a
  /// not-yet-connected peer and the reads of its frames.  0 blocks
  /// forever (the pre-supervisor behaviour).  On expiry recv throws
  /// peer_lost_error.
  int recv_deadline_ms = 0;

  /// Total budget for resolving a peer in the registry plus connecting to
  /// it, with exponential backoff between ECONNREFUSED retries.  On
  /// expiry send() throws peer_lost_error.
  int connect_deadline_ms = 10000;

  /// Hard cap on connect() attempts to one peer; reaching it surfaces a
  /// peer_lost_error naming the peer and the attempt count even if the
  /// connect deadline has budget left.  <= 0 leaves the deadline as the
  /// only bound.
  int connect_attempt_cap = 1000;

  /// Optional wire telemetry: when set, the endpoint charges per-rank
  /// "transport.*" counters (messages/doubles sent when send() accepts a
  /// frame, and received; connect retries, deadline expiries, peer
  /// losses), the send-queue-depth gauge (frames not yet fully written,
  /// after each send or drain) and the recv-wait timer into this
  /// registry.
  std::shared_ptr<telemetry::MetricsRegistry> metrics;

  /// Liveness hooks for the supervised runtime.  When either is set, every
  /// blocking wait (recv poll, accept, flush, connect backoff and registry
  /// poll) is sliced into wait_slice_ms chunks and the hooks are pumped
  /// between slices:
  ///   * wait_beacon() lets a child keep heartbeating while it is parked
  ///     in a long exchange wait, so the watchdog can tell "waiting on a
  ///     dead peer" from "hung";
  ///   * abort_requested() returning true makes the wait throw
  ///     endpoint_aborted, unwinding the step loop so the child can roll
  ///     back in-process on the supervisor's signal.
  /// Unset, waits are single full-deadline polls.
  std::function<void()> wait_beacon;
  std::function<bool()> abort_requested;
  int wait_slice_ms = 50;
};

class TcpEndpoint {
 public:
  /// Binds a listener for `rank` and publishes its port.  A plain
  /// `registry_path` is a shared file (append mode + lock, so concurrent
  /// processes can register simultaneously); an
  /// "rdv:<host>:<port>[.g<round>]" path instead registers with — and
  /// resolves peers from — the supervisor's rendezvous service
  /// (src/comm/rendezvous.hpp), keeping run-critical coordination off the
  /// shared filesystem.
  TcpEndpoint(int rank, int ranks, std::string registry_path,
              TcpEndpointOptions options = {});
  /// Flushes on a best-effort basis and never throws.
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  int rank() const { return rank_; }

  /// Writes a frame for `dst` from the calling thread — header and
  /// payload in one non-blocking sendmsg — and keeps, in order, the bytes
  /// the socket does not take for later sends and waits to write.  The
  /// first send to a peer connects, waiting until the peer has published
  /// its port.  Throws peer_lost_error when the connect or a write fails.
  void send(int dst, MessageTag tag, std::vector<double> payload);

  /// Blocks until every frame is fully written.  Must be called before a
  /// process _exit()s: a peer may still be waiting on the final messages.
  /// Throws peer_lost_error when a write fails.
  void flush();

  /// Blocks until the message (src -> this rank, tag) arrives; frames
  /// with other tags are parked.  With a recv deadline configured, throws
  /// peer_lost_error when the deadline passes without the message.
  std::vector<double> recv(int src, MessageTag tag);

 private:
  using Clock = std::chrono::steady_clock;

  struct WireHeader {
    std::uint64_t tag;
    std::uint64_t count;
    std::int32_t src;
    std::int32_t dst;
  };
  /// A frame the socket has not fully taken yet.
  struct OutFrame {
    WireHeader header;
    std::vector<double> payload;
    std::size_t written = 0;  // bytes of header + payload on the wire
  };
  struct Outbox {
    int peer = -1;
    int fd = -1;
    std::deque<OutFrame> frames;
  };

  bool sliced() const {
    return options_.wait_beacon || options_.abort_requested;
  }
  void pump_wait_hooks() const;
  [[noreturn]] void lose_peer(const std::string& what);
  void wait_io(int fd, short events, bool has_deadline,
               Clock::time_point deadline, const char* what,
               telemetry::Counter* expired);
  void drain(Outbox& box);
  void note_queue_depth();
  void read_bytes(int fd, void* data, std::size_t len, bool has_deadline,
                  Clock::time_point deadline, telemetry::Counter* expired);
  int lookup_port(int rank, std::string* host);
  int connect_to(int rank);
  Outbox& outbox(int dst);

  int rank_;
  int ranks_;
  std::string registry_path_;
  TcpEndpointOptions options_;
  // Set when registry_path_ is an "rdv:" endpoint.
  std::unique_ptr<rendezvous::Client> rdv_client_;
  int rdv_round_ = 0;
  int listen_fd_ = -1;
  int port_ = 0;
  std::map<int, int> in_fds_;
  std::map<int, Outbox> out_;
  std::map<int, std::deque<std::pair<MessageTag, std::vector<double>>>>
      parked_;
};

}  // namespace subsonic
