#include "src/comm/tcp_endpoint.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "src/comm/rendezvous.hpp"
#include "src/telemetry/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/stopwatch.hpp"

namespace subsonic {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Milliseconds until `deadline`, clamped at 0; -1 when no deadline is set
/// (poll's "wait forever").
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

void sleep_ms(int ms) { ::poll(nullptr, 0, ms); }

}  // namespace

void TcpEndpoint::pump_wait_hooks() const {
  if (options_.wait_beacon) options_.wait_beacon();
  if (options_.abort_requested && options_.abort_requested())
    throw endpoint_aborted("endpoint wait aborted by rollback request");
}

void TcpEndpoint::lose_peer(const std::string& what) {
  if (options_.metrics)
    options_.metrics->counter(rank_, "transport.peer_lost").add();
  throw peer_lost_error(what);
}

/// Blocks until `fd` matches `events` or the deadline passes; throws
/// peer_lost_error on expiry (charging `expired` when provided).  Peers
/// with pending frames are drained as their sockets turn writable; fd < 0
/// waits on them alone and returns after a drain, or at once if nothing
/// is pending.  With liveness hooks the wait is sliced so the hooks are
/// pumped every wait_slice_ms.
void TcpEndpoint::wait_io(int fd, short events, bool has_deadline,
                          Clock::time_point deadline, const char* what,
                          telemetry::Counter* expired) {
  std::vector<pollfd> fds;
  std::vector<Outbox*> boxes;
  for (;;) {
    if (sliced()) pump_wait_hooks();
    fds.clear();
    boxes.clear();
    for (auto& [peer, box] : out_)
      if (!box.frames.empty()) {
        fds.push_back(pollfd{box.fd, POLLOUT, 0});
        boxes.push_back(&box);
      }
    if (fd < 0 && boxes.empty()) return;
    if (fd >= 0) fds.push_back(pollfd{fd, events, 0});
    int timeout = remaining_ms(has_deadline, deadline);
    if (sliced()) {
      const int slice = std::max(1, options_.wait_slice_ms);
      timeout = timeout < 0 ? slice : std::min(timeout, slice);
    }
    const int n = ::poll(fds.data(), fds.size(), timeout);
    if (n < 0) {
      if (errno != EINTR) throw_errno("poll");
      continue;
    }
    bool drained = false;
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      if (fds[i].revents == 0) continue;
      drain(*boxes[i]);
      drained = true;
    }
    if (drained) note_queue_depth();
    // Ready, closed, or errored: the caller's read/accept resolves it.
    if (fd >= 0 ? fds.back().revents != 0 : drained) return;
    // An unsliced poll that timed out waited the whole remaining budget.
    if (has_deadline && ((n == 0 && !sliced()) || Clock::now() >= deadline)) {
      if (expired) expired->add();
      throw peer_lost_error(std::string(what) +
                            ": recv deadline expired — peer presumed lost");
    }
  }
}

/// Writes `box`'s frames in order until the socket stops taking bytes:
/// one sendmsg per frame, header and payload as two iovecs.  MSG_DONTWAIT
/// keeps the caller from blocking; MSG_NOSIGNAL turns a closed peer into
/// peer_lost_error instead of a process-killing SIGPIPE.
void TcpEndpoint::drain(Outbox& box) {
  while (!box.frames.empty()) {
    OutFrame& f = box.frames.front();
    const std::size_t head = sizeof f.header;
    const std::size_t body = f.payload.size() * sizeof(double);
    iovec iov[2];
    int parts = 0;
    if (f.written < head)
      iov[parts++] = {reinterpret_cast<char*>(&f.header) + f.written,
                      head - f.written};
    const std::size_t body_done = f.written > head ? f.written - head : 0;
    if (body > body_done)
      iov[parts++] = {reinterpret_cast<char*>(f.payload.data()) + body_done,
                      body - body_done};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(parts);
    const ssize_t n = ::sendmsg(box.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EPIPE || errno == ECONNRESET)
        lose_peer("peer " + std::to_string(box.peer) +
                  " closed TCP channel mid-send");
      throw_errno("sendmsg");
    }
    f.written += static_cast<std::size_t>(n);
    if (f.written == head + body) box.frames.pop_front();
  }
}

void TcpEndpoint::note_queue_depth() {
  if (!options_.metrics) return;
  std::size_t frames = 0;
  for (const auto& [peer, box] : out_) frames += box.frames.size();
  options_.metrics->gauge(rank_, "transport.send_queue_depth")
      .set(static_cast<double>(frames));
}

/// Reads `len` bytes, trying the socket before polling it: only an empty
/// socket waits (and drains pending frames meanwhile).
void TcpEndpoint::read_bytes(int fd, void* data, std::size_t len,
                             bool has_deadline, Clock::time_point deadline,
                             telemetry::Counter* expired) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, MSG_DONTWAIT);
    if (n == 0) throw peer_lost_error("peer closed TCP channel");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_io(fd, POLLIN, has_deadline, deadline, "read", expired);
        continue;
      }
      if (errno == ECONNRESET)
        throw peer_lost_error("peer reset TCP channel");
      throw_errno("recv");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

TcpEndpoint::TcpEndpoint(int rank, int ranks, std::string registry_path,
                         TcpEndpointOptions options)
    : rank_(rank),
      ranks_(ranks),
      registry_path_(std::move(registry_path)),
      options_(options) {
  SUBSONIC_REQUIRE(rank >= 0 && rank < ranks);
  SUBSONIC_REQUIRE(options_.recv_deadline_ms >= 0);
  SUBSONIC_REQUIRE(options_.connect_deadline_ms > 0);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0)
    throw_errno("bind");
  if (::listen(listen_fd_, ranks) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0)
    throw_errno("getsockname");
  port_ = ntohs(addr.sin_port);

  // Publish (rank, port).  Against a rendezvous service this is one REG
  // request; otherwise it is the paper's shared-file protocol — append
  // mode under an exclusive lock, because other processes register
  // concurrently.
  rendezvous::Endpoint rdv;
  if (rendezvous::parse_registry(registry_path_, &rdv)) {
    rdv_client_ = std::make_unique<rendezvous::Client>(rdv.host, rdv.port);
    rdv_round_ = rdv.round;
    if (!rdv_client_->publish(rdv_round_, rank_, "127.0.0.1", port_))
      throw std::runtime_error("rendezvous registration failed for rank " +
                               std::to_string(rank_) + " at " +
                               registry_path_);
    return;
  }
  const int fd =
      ::open(registry_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("registry open");
  if (::flock(fd, LOCK_EX) != 0) {
    ::close(fd);
    throw std::runtime_error("registry lock failed");
  }
  char line[64];
  const int n = std::snprintf(line, sizeof line, "%d %d\n", rank_, port_);
  if (::write(fd, line, static_cast<size_t>(n)) != n) {
    ::flock(fd, LOCK_UN);
    ::close(fd);
    throw_errno("registry write");
  }
  ::flock(fd, LOCK_UN);
  ::close(fd);
}

TcpEndpoint::~TcpEndpoint() {
  // Best effort: a peer may still be waiting on the last frames, but a
  // destructor that unwinds an abandoned round must not throw.
  try {
    flush();
  } catch (...) {
  }
  for (auto& [peer, fd] : in_fds_) ::close(fd);
  for (auto& [peer, box] : out_) ::close(box.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

int TcpEndpoint::lookup_port(int rank, std::string* host) {
  // Peers may not have registered yet; poll the registry — rendezvous
  // GET probes or shared-file reads — until the connect deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_deadline_ms);
  for (;;) {
    pump_wait_hooks();
    if (rdv_client_) {
      rendezvous::PeerAddr addr;
      if (rdv_client_->lookup(rdv_round_, rank, &addr)) {
        if (host) *host = addr.host;
        return addr.port;
      }
    } else {
      std::ifstream in(registry_path_);
      int r = 0, port = 0;
      while (in >> r >> port)
        if (r == rank) return port;
    }
    if (Clock::now() >= deadline)
      lose_peer("rank " + std::to_string(rank) +
                " never appeared in the port registry");
    sleep_ms(5);
  }
}

int TcpEndpoint::connect_to(int rank) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_deadline_ms);
  std::string host;
  const int port = lookup_port(rank, &host);
  in_addr peer_addr{};
  peer_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (!host.empty() && ::inet_aton(host.c_str(), &peer_addr) == 0)
    throw std::runtime_error("rendezvous returned unparseable host \"" +
                             host + "\" for rank " + std::to_string(rank));
  // The peer has published its port, but its accept queue may fill or the
  // listener may briefly not exist yet (or anymore): retry refused
  // connections with exponential backoff until the deadline or the attempt
  // cap, whichever comes first.  The backoff carries deterministic
  // per-(self, peer) jitter (a seeded LCG, not entropy) so a cohort's
  // retry storms decorrelate identically in a run and its replay.
  int backoff_ms = 1;
  int attempts = 0;
  std::uint32_t lcg = 0x9E3779B9u ^ (static_cast<std::uint32_t>(rank_) << 16) ^
                      static_cast<std::uint32_t>(rank);
  for (;;) {
    pump_wait_hooks();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = peer_addr;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ++attempts;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED && err != ETIMEDOUT) {
      errno = err;
      throw_errno("connect");
    }
    const bool capped = options_.connect_attempt_cap > 0 &&
                        attempts >= options_.connect_attempt_cap;
    if (capped || Clock::now() >= deadline)
      lose_peer(
          "rank " + std::to_string(rank_) + " could not connect to rank " +
          std::to_string(rank) + " after " + std::to_string(attempts) +
          " attempts (" + (capped ? "retry cap" : "connect deadline") +
          " reached)");
    if (options_.metrics)
      options_.metrics->counter(rank_, "transport.connect_retries").add();
    lcg = lcg * 1664525u + 1013904223u;
    const int jitter_ms =
        static_cast<int>(lcg >> 16) % (backoff_ms / 2 + 1);
    sleep_ms(backoff_ms + jitter_ms);
    backoff_ms = std::min(backoff_ms * 2, 64);
  }
}

TcpEndpoint::Outbox& TcpEndpoint::outbox(int dst) {
  auto it = out_.find(dst);
  if (it != out_.end()) return it->second;
  const int fd = connect_to(dst);
  // A fresh socket's send buffer is empty, so the 4-byte hello goes out
  // whole; a peer that is already gone fails the first frame's sendmsg.
  const std::int32_t hello = rank_;
  (void)::send(fd, &hello, sizeof hello, MSG_NOSIGNAL);
  return out_.emplace(dst, Outbox{dst, fd, {}}).first->second;
}

void TcpEndpoint::send(int dst, MessageTag tag,
                       std::vector<double> payload) {
  SUBSONIC_REQUIRE(dst >= 0 && dst < ranks_);
  Outbox& box = outbox(dst);
  if (options_.metrics) {
    options_.metrics->counter(rank_, "transport.msgs_sent").add();
    options_.metrics->counter(rank_, "transport.doubles_sent")
        .add(static_cast<long long>(payload.size()));
  }
  const WireHeader h{tag, payload.size(), rank_, dst};
  box.frames.push_back(OutFrame{h, std::move(payload)});
  drain(box);
  note_queue_depth();
}

void TcpEndpoint::flush() {
  while (std::any_of(out_.begin(), out_.end(), [](const auto& kv) {
    return !kv.second.frames.empty();
  }))
    wait_io(-1, 0, false, Clock::time_point{}, "flush", nullptr);
}

std::vector<double> TcpEndpoint::recv(int src, MessageTag tag) {
  SUBSONIC_REQUIRE(src >= 0 && src < ranks_);
  const bool has_deadline = options_.recv_deadline_ms > 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.recv_deadline_ms);
  telemetry::Counter* expired =
      options_.metrics
          ? &options_.metrics->counter(rank_, "transport.deadline_expired")
          : nullptr;
  Stopwatch wait;
  const auto charge_recv = [&](const std::vector<double>& payload) {
    if (!options_.metrics) return;
    options_.metrics->timer(rank_, "transport.recv_wait")
        .record(wait.seconds());
    options_.metrics->counter(rank_, "transport.msgs_recv").add();
    options_.metrics->counter(rank_, "transport.doubles_recv")
        .add(static_cast<long long>(payload.size()));
  };
  for (;;) {
    // 1. Parked from an earlier read?
    auto pit = parked_.find(src);
    if (pit != parked_.end()) {
      for (auto it = pit->second.begin(); it != pit->second.end(); ++it)
        if (it->first == tag) {
          std::vector<double> payload = std::move(it->second);
          pit->second.erase(it);
          charge_recv(payload);
          return payload;
        }
    }
    // 2. Need the connection from src.
    auto cit = in_fds_.find(src);
    if (cit == in_fds_.end()) {
      wait_io(listen_fd_, POLLIN, has_deadline, deadline, "accept", expired);
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        throw_errno("accept");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::int32_t hello = -1;
      read_bytes(fd, &hello, sizeof hello, has_deadline, deadline, expired);
      SUBSONIC_CHECK(hello >= 0 && hello < ranks_);
      in_fds_.emplace(hello, fd);
      continue;
    }
    // 3. Read the next frame from src; park mismatched tags.
    WireHeader h{};
    read_bytes(cit->second, &h, sizeof h, has_deadline, deadline, expired);
    SUBSONIC_CHECK(h.src == src && h.dst == rank_);
    std::vector<double> payload(h.count);
    if (h.count > 0)
      read_bytes(cit->second, payload.data(), h.count * sizeof(double),
                 has_deadline, deadline, expired);
    if (h.tag == tag) {
      charge_recv(payload);
      return payload;
    }
    parked_[src].emplace_back(h.tag, std::move(payload));
  }
}

}  // namespace subsonic
