// TcpEndpoint, the one-rank-per-process TCP transport, tested directly:
// frames are written from the caller's thread, bytes the socket does not
// take wait in a per-peer queue, and every blocking wait drains that
// queue.  These tests pin what that design must guarantee: no deadlock
// when both ends send more than the socket buffers hold before reading,
// FIFO order and tag parking across inline and queued frames, no thread,
// SIGPIPE-free peer loss, and recv deadlines that still expire on time.
#include "src/comm/tcp_endpoint.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/transport.hpp"
#include "src/telemetry/metrics.hpp"

namespace subsonic {
namespace {

/// A fresh shared registry file for one test's endpoints.
std::string temp_registry(const char* name) {
  const std::string path = std::string(::testing::TempDir()) +
                           "/subsonic_endpoint_" + name + "_" +
                           std::to_string(::getpid());
  std::remove(path.c_str());
  return path;
}

/// Far larger than a loopback socket's send plus receive buffer, so a
/// frame of this size cannot leave in one sendmsg to a peer not reading.
constexpr std::size_t kLargeDoubles = std::size_t{2} << 20;  // 16 MiB

std::vector<double> pattern(std::size_t n, double seed) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = seed + static_cast<double>(i) * 0.25;
  return v;
}

TcpEndpointOptions with_metrics(
    const std::shared_ptr<telemetry::MetricsRegistry>& metrics) {
  TcpEndpointOptions opt;
  opt.metrics = metrics;
  return opt;
}

double queue_depth(telemetry::MetricsRegistry& m, int rank) {
  return m.gauge(rank, "transport.send_queue_depth").value();
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(TcpEndpoint, LargeCrossSendsCompleteWithoutDeadlock) {
  // Both ranks send before either receives.  Neither payload fits the
  // socket buffers, so each rank can only finish its send while parked in
  // recv — which must keep draining its own pending bytes.
  const std::string registry = temp_registry("cross");
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  std::vector<double> got[2];
  double depth_after_send[2] = {0, 0};
  auto rank_body = [&](int rank) {
    TcpEndpoint ep(rank, 2, registry, with_metrics(metrics));
    const int peer = 1 - rank;
    ep.send(peer, make_tag(0, 0, 0), pattern(kLargeDoubles, rank + 1.0));
    depth_after_send[rank] = queue_depth(*metrics, rank);
    got[rank] = ep.recv(peer, make_tag(0, 0, 0));
    ep.flush();
  };
  std::thread other(rank_body, 1);
  rank_body(0);
  other.join();
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(depth_after_send[rank], 1.0)
        << "rank " << rank << "'s frame fit the socket buffers";
    const std::vector<double> want = pattern(kLargeDoubles, 2.0 - rank);
    ASSERT_EQ(got[rank].size(), want.size());
    EXPECT_EQ(std::memcmp(got[rank].data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "rank " << rank;
    EXPECT_EQ(queue_depth(*metrics, rank), 0.0);
  }
}

TEST(TcpEndpoint, FifoAndTagParkingHoldAcrossInlineAndQueuedFrames) {
  const std::string registry = temp_registry("fifo");
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  TcpEndpoint receiver(1, 2, registry);
  double depth_after_sends = -1;
  std::thread sender([&] {
    TcpEndpoint ep(0, 2, registry, with_metrics(metrics));
    ep.send(1, 1, {1.0});                        // goes out inline
    ep.send(1, 2, pattern(kLargeDoubles, 2.0));  // leaves a pending tail
    ep.send(1, 3, {3.0});                        // queued behind the tail
    ep.send(1, 5, {5.0, 0.5});                   // one tag twice: FIFO
    ep.send(1, 5, {5.0, 1.5});
    ep.send(1, 4, {});                           // empty payload
    depth_after_sends = queue_depth(*metrics, 0);
    ep.flush();
  });
  // Out of send order: each recv parks the frames it reads past.
  EXPECT_EQ(receiver.recv(0, 3), std::vector<double>{3.0});
  EXPECT_EQ(receiver.recv(0, 5), (std::vector<double>{5.0, 0.5}));
  EXPECT_EQ(receiver.recv(0, 1), std::vector<double>{1.0});
  EXPECT_TRUE(receiver.recv(0, 4).empty());
  EXPECT_EQ(receiver.recv(0, 5), (std::vector<double>{5.0, 1.5}));
  EXPECT_EQ(receiver.recv(0, 2), pattern(kLargeDoubles, 2.0));
  sender.join();
  EXPECT_EQ(depth_after_sends, 5.0)
      << "the large frame should have left a tail for five frames to queue "
         "behind";
  EXPECT_EQ(metrics->counter(0, "transport.msgs_sent").value(), 6);
  EXPECT_EQ(metrics->counter(0, "transport.doubles_sent").value(),
            static_cast<long long>(kLargeDoubles) + 6);
}

TEST(TcpEndpoint, StartsNoThread) {
  const std::string registry = temp_registry("nothread");
  TcpEndpoint a(0, 2, registry);
  TcpEndpoint b(1, 2, registry);
  const std::size_t before = thread_count();
  a.send(1, 7, {1.0, 2.0});
  EXPECT_EQ(b.recv(0, 7), (std::vector<double>{1.0, 2.0}));
  b.send(0, 8, {3.0});
  EXPECT_EQ(a.recv(1, 8), std::vector<double>{3.0});
  a.flush();
  b.flush();
  EXPECT_EQ(thread_count(), before);
}

TEST(TcpEndpoint, PeerClosingMidStreamIsPeerLostNotSigpipe) {
  // A default SIGPIPE disposition kills the process on a write to a
  // closed socket, so reaching the assertions proves the endpoint never
  // raised it.
  std::signal(SIGPIPE, SIG_DFL);
  const std::string registry = temp_registry("peergone");
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  TcpEndpoint a(0, 2, registry, with_metrics(metrics));
  auto b = std::make_unique<TcpEndpoint>(1, 2, registry);
  a.send(1, 1, {1.0});
  EXPECT_EQ(b->recv(0, 1), std::vector<double>{1.0});
  b.reset();
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i)
          a.send(1, 2 + i, pattern(std::size_t{1} << 17, i));  // 1 MiB
        a.flush();
      },
      peer_lost_error);
  EXPECT_GE(metrics->counter(0, "transport.peer_lost").value(), 1);
}

TEST(TcpEndpoint, RecvDeadlineExpiresOnTimeWhileHoldingUndrainedBytes) {
  const std::string registry = temp_registry("deadline");
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  TcpEndpointOptions opt = with_metrics(metrics);
  opt.recv_deadline_ms = 200;
  TcpEndpoint a(0, 2, registry, opt);
  // Rank 1 registers but never reads, so a's frame stays half-written.
  auto b = std::make_unique<TcpEndpoint>(1, 2, registry);
  a.send(1, 1, pattern(kLargeDoubles, 1.0));
  ASSERT_EQ(queue_depth(*metrics, 0), 1.0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(a.recv(1, 9), peer_lost_error);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_GE(waited_ms, 190.0);
  EXPECT_LT(waited_ms, 1500.0);
  EXPECT_EQ(metrics->counter(0, "transport.deadline_expired").value(), 1);
  EXPECT_EQ(queue_depth(*metrics, 0), 1.0);
  // Closing rank 1 resets the channel, so a's best-effort flush on
  // destruction ends instead of waiting on a reader that never comes.
  b.reset();
}

}  // namespace
}  // namespace subsonic
