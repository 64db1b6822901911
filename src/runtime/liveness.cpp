#include "src/runtime/liveness.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/telemetry/telemetry.hpp"

namespace subsonic {
namespace liveness {

namespace {

constexpr std::uint32_t kBeaconMagic = 0x53554248u;    // "SUBH"
constexpr std::uint32_t kRollbackMagic = 0x53554252u;  // "SUBR"
constexpr std::uint32_t kMetricsMagic = 0x5355424Du;   // "SUBM"

template <typename T>
void put(unsigned char*& p, T v) {
  std::memcpy(p, &v, sizeof v);
  p += sizeof v;
}

template <typename T>
T get(const unsigned char*& p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}

}  // namespace

int resolve_floor_ms(const LivenessOptions& options) {
  if (options.heartbeat_floor_ms > 0) return options.heartbeat_floor_ms;
  if (const char* env = std::getenv("SUBSONIC_HEARTBEAT_MS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 5000;
}

bool resolve_socket_channels(const LivenessOptions& options) {
  if (options.socket_channels > 0) return true;
  if (options.socket_channels < 0) return false;
  const char* env = std::getenv("SUBSONIC_LIVENESS_CHANNEL");
  return env && std::string(env) == "socket";
}

std::string registry_for(const std::string& base, int round) {
  return base + ".g" + std::to_string(round);
}

void remove_port_registries(const std::string& workdir) {
  DIR* dir = ::opendir(workdir.c_str());
  if (!dir) return;
  std::vector<std::string> doomed;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("ports", 0) == 0) doomed.push_back(workdir + "/" + name);
  }
  ::closedir(dir);
  for (const std::string& path : doomed) std::remove(path.c_str());
}

void encode_beacon(const Beacon& b, unsigned char out[kBeaconBytes]) {
  unsigned char* p = out;
  put(p, kBeaconMagic);
  put(p, static_cast<std::int32_t>(b.rank));
  put(p, static_cast<std::int32_t>(b.phase));
  put(p, b.round);
  put(p, b.step);
  put(p, b.mono_ns);
}

bool decode_beacon(const unsigned char in[kBeaconBytes], Beacon* out) {
  const unsigned char* p = in;
  if (get<std::uint32_t>(p) != kBeaconMagic) return false;
  out->rank = get<std::int32_t>(p);
  const std::int32_t phase = get<std::int32_t>(p);
  if (phase < 0 || phase > static_cast<std::int32_t>(Phase::kWait))
    return false;
  out->phase = static_cast<Phase>(phase);
  out->round = get<std::int32_t>(p);
  out->step = get<std::int64_t>(p);
  out->mono_ns = get<std::int64_t>(p);
  return true;
}

void encode_metrics_frame(const MetricsFrame& m,
                          unsigned char out[kMetricsFrameBytes]) {
  unsigned char* p = out;
  put(p, kMetricsMagic);
  put(p, kMetricsFrameVersion);
  put(p, static_cast<std::uint16_t>(kMetricsFrameBytes));
  put(p, static_cast<std::int32_t>(m.rank));
  put(p, m.round);
  put(p, m.step);
  put(p, m.mono_ns);
  put(p, m.t_calc_s);
  put(p, m.t_com_s);
  put(p, m.steps_done);
  put(p, m.msgs_sent);
  put(p, m.doubles_sent);
  put(p, m.comm_p50_s);
  put(p, m.comm_p95_s);
  put(p, m.comm_p99_s);
  put(p, m.step_wall_sum_s);
  put(p, m.step_wall_count);
  for (std::uint32_t b : m.step_wall_buckets) put(p, b);
}

bool decode_metrics_frame(const unsigned char* in, std::size_t len,
                          MetricsFrame* out) {
  if (len < kMetricsFrameBytes) return false;
  const unsigned char* p = in;
  if (get<std::uint32_t>(p) != kMetricsMagic) return false;
  if (get<std::uint16_t>(p) != kMetricsFrameVersion) return false;
  if (get<std::uint16_t>(p) != kMetricsFrameBytes) return false;
  out->rank = get<std::int32_t>(p);
  out->round = get<std::int32_t>(p);
  out->step = get<std::int64_t>(p);
  out->mono_ns = get<std::int64_t>(p);
  out->t_calc_s = get<double>(p);
  out->t_com_s = get<double>(p);
  out->steps_done = get<std::int64_t>(p);
  out->msgs_sent = get<std::int64_t>(p);
  out->doubles_sent = get<std::int64_t>(p);
  out->comm_p50_s = get<double>(p);
  out->comm_p95_s = get<double>(p);
  out->comm_p99_s = get<double>(p);
  out->step_wall_sum_s = get<double>(p);
  out->step_wall_count = get<std::int64_t>(p);
  for (std::uint32_t& b : out->step_wall_buckets) b = get<std::uint32_t>(p);
  return true;
}

void encode_rollback(const RollbackMsg& m, unsigned char out[kRollbackBytes]) {
  unsigned char* p = out;
  put(p, kRollbackMagic);
  put(p, m.round);
  put(p, m.epoch);
}

bool decode_rollback(const unsigned char in[kRollbackBytes],
                     RollbackMsg* out) {
  const unsigned char* p = in;
  if (get<std::uint32_t>(p) != kRollbackMagic) return false;
  out->round = get<std::int32_t>(p);
  out->epoch = get<std::int64_t>(p);
  return true;
}

namespace {

/// Reads exactly `len` bytes; false on EOF/error — and on EAGAIN, so the
/// O_NONBLOCK drain below terminates when the pipe runs dry (rollback
/// writes are 16-byte atomic, so a partial frame cannot be stranded).
bool read_exact(int fd, unsigned char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, buf + got, len - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, EAGAIN, or hard error
  }
  return true;
}

}  // namespace

int read_rollback(int fd, RollbackMsg* out) {
  unsigned char buf[kRollbackBytes];
  if (!read_exact(fd, buf, kRollbackBytes)) return 0;
  if (!decode_rollback(buf, out)) return 0;
  int consumed = 1;
  // Drain queued newer orders: if two recoveries raced this child's
  // rollback handling, only the newest round matters.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0) {
    RollbackMsg newer;
    while (read_exact(fd, buf, kRollbackBytes) &&
           decode_rollback(buf, &newer)) {
      *out = newer;
      ++consumed;
    }
    ::fcntl(fd, F_SETFL, flags);
  }
  return consumed;
}

long long mono_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Emitter::Emitter(int fd, int rank, int interval_ms)
    : fd_(fd),
      rank_(rank),
      interval_ns_(static_cast<long long>(
                       interval_ms > 0 ? interval_ms : 1) *
                   1000 * 1000) {}

void Emitter::emit(Phase phase, long step) {
  if (!active()) return;
  last_step_.store(step, std::memory_order_relaxed);
  write_beacon(phase, step);
  last_ns_.store(mono_now_ns(), std::memory_order_relaxed);
}

void Emitter::wait_tick() {
  if (!active()) return;
  const long long now = mono_now_ns();
  long long last = last_ns_.load(std::memory_order_relaxed);
  if (now - last < interval_ns_) return;
  // One winner per interval even when several threads race here; losers
  // simply skip — the beacon they wanted was just sent.
  if (!last_ns_.compare_exchange_strong(last, now, std::memory_order_relaxed))
    return;
  write_beacon(Phase::kWait, last_step_.load(std::memory_order_relaxed));
}

void Emitter::emit_metrics(MetricsFrame frame) {
  if (!active()) return;
  frame.rank = rank_;
  frame.round = round_.load(std::memory_order_relaxed);
  frame.mono_ns = mono_now_ns();
  unsigned char buf[kMetricsFrameBytes];
  encode_metrics_frame(frame, buf);
  // Same contract as beacons: 272 <= PIPE_BUF keeps the O_NONBLOCK write
  // all-or-nothing, so a full pipe drops the digest whole.
  const ssize_t n = ::write(fd_, buf, kMetricsFrameBytes);
  (void)n;
}

void Emitter::write_beacon(Phase phase, long step) {
  Beacon b;
  b.rank = rank_;
  b.phase = phase;
  b.round = round_.load(std::memory_order_relaxed);
  b.step = step;
  b.mono_ns = mono_now_ns();
  unsigned char frame[kBeaconBytes];
  encode_beacon(b, frame);
  // O_NONBLOCK write end: a full pipe (supervisor stalled) drops the
  // beacon rather than wedging the child.  32 <= PIPE_BUF, so the write
  // is all-or-nothing — no torn frames.
  const ssize_t n = ::write(fd_, frame, kBeaconBytes);
  (void)n;
}

void DeadlineModel::observe_step(double dt_s) {
  if (dt_s <= 0) return;
  ewma_step_s = ewma_step_s > 0 ? 0.7 * ewma_step_s + 0.3 * dt_s : dt_s;
}

double DeadlineModel::deadline_s() const {
  const double adaptive = multiplier * ewma_step_s;
  return adaptive > floor_s ? adaptive : floor_s;
}

Monitor::Monitor(double floor_s, double multiplier)
    : floor_s_(floor_s), multiplier_(multiplier) {}

void Monitor::attach(int rank, int fd, int round, double now_s) {
  State st;
  st.fd = fd;
  st.round = round;
  st.last_beacon_s = now_s;
  st.model.floor_s = floor_s_;
  st.model.multiplier = multiplier_;
  states_[rank] = std::move(st);
}

void Monitor::detach(int rank) { states_.erase(rank); }

bool Monitor::attached(int rank) const { return states_.count(rank) != 0; }

void Monitor::on_recovery_signal(int rank, int round, double now_s) {
  const auto it = states_.find(rank);
  if (it == states_.end()) return;
  State& st = it->second;
  if (round > st.round) st.round = round;
  st.last_beacon_s = now_s;
  st.hung = false;
  st.last_step_mono = -1;
}

void Monitor::poll(double now_s) {
  for (auto& [rank, st] : states_) {
    (void)rank;
    if (st.fd < 0) continue;
    char chunk[512];
    for (;;) {
      const ssize_t n = ::read(st.fd, chunk, sizeof chunk);
      if (n > 0) {
        st.buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      break;  // 0 = writer gone (reap will follow); <0 = EAGAIN/EINTR
    }
    // The pipe interleaves two frame types, both written atomically:
    // 32-byte beacons ("SUBH") and length-prefixed metrics digests
    // ("SUBM").  Dispatch on the magic; an unrecognized byte resyncs by
    // one (cannot happen with atomic pipe writes).
    while (st.buf.size() >= sizeof(std::uint32_t)) {
      std::uint32_t magic;
      std::memcpy(&magic, st.buf.data(), sizeof magic);
      if (magic == kMetricsMagic) {
        if (st.buf.size() < 8) break;  // size field not in yet
        std::uint16_t size;
        std::memcpy(&size, st.buf.data() + 6, sizeof size);
        if (size < 8) {
          st.buf.erase(0, 1);
          continue;
        }
        if (st.buf.size() < size) break;  // partial frame: carry to next poll
        MetricsFrame mf;
        if (decode_metrics_frame(
                reinterpret_cast<const unsigned char*>(st.buf.data()), size,
                &mf)) {
          st.has_frame = true;
          st.frame = mf;
          st.last_beacon_s = now_s;  // a digest is proof of life too
          if (frame_sink_) frame_sink_(mf);
        }
        st.buf.erase(0, size);
        continue;
      }
      if (magic != kBeaconMagic) {
        st.buf.erase(0, 1);
        continue;
      }
      if (st.buf.size() < kBeaconBytes) break;
      Beacon b;
      if (!decode_beacon(
              reinterpret_cast<const unsigned char*>(st.buf.data()), &b)) {
        st.buf.erase(0, 1);
        continue;
      }
      st.buf.erase(0, kBeaconBytes);
      st.last_beacon_s = now_s;
      if (b.round > st.round) st.round = b.round;
      if (b.phase == Phase::kStep) {
        if (st.last_step_mono >= 0 && b.mono_ns > st.last_step_mono)
          st.model.observe_step(
              static_cast<double>(b.mono_ns - st.last_step_mono) * 1e-9);
        st.last_step_mono = b.mono_ns;
        if (b.step > st.step) st.step = b.step;
      } else if (b.phase == Phase::kStart) {
        // New round: the step counter rewinds and cross-round step deltas
        // are meaningless for the EWMA.
        st.step = b.step;
        st.last_step_mono = -1;
      }
    }
  }
}

bool Monitor::latest_frame(int rank, MetricsFrame* out) const {
  const auto it = states_.find(rank);
  if (it == states_.end() || !it->second.has_frame) return false;
  *out = it->second.frame;
  return true;
}

void Monitor::set_frame_sink(std::function<void(const MetricsFrame&)> sink) {
  frame_sink_ = std::move(sink);
}

std::vector<int> Monitor::newly_hung(double now_s) {
  std::vector<int> hung;
  for (auto& [rank, st] : states_) {
    if (st.hung) continue;
    if (now_s - st.last_beacon_s > st.model.deadline_s()) {
      st.hung = true;
      hung.push_back(rank);
    }
  }
  return hung;
}

long Monitor::last_step(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? -1 : it->second.step;
}

int Monitor::observed_round(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? -1 : it->second.round;
}

double Monitor::silence_s(int rank, double now_s) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? 0 : now_s - it->second.last_beacon_s;
}

double Monitor::deadline_s(int rank) const {
  const auto it = states_.find(rank);
  return it == states_.end() ? 0 : it->second.model.deadline_s();
}

bool Monitor::beaconed_since(int rank, double t_s) const {
  const auto it = states_.find(rank);
  return it == states_.end() || it->second.last_beacon_s >= t_s;
}

Escalation::Action Escalation::next(double now_s, double grace_s) {
  if (term_at_s < 0) {
    term_at_s = now_s;
    return Action::kSigterm;
  }
  if (!killed && now_s - term_at_s >= grace_s) {
    killed = true;
    return Action::kSigkill;
  }
  return Action::kNone;
}

CohortEngine::CohortEngine(std::vector<int> ranks,
                           const LivenessOptions& options, int max_restarts,
                           EngineHooks hooks, telemetry::Session* supervisor,
                           std::vector<telemetry::LivenessRecord>* records,
                           int* restarts, int* forks)
    : options_(options),
      floor_s_(resolve_floor_ms(options) * 1e-3),
      grace_s_((options.grace_ms > 0 ? options.grace_ms : 1) * 1e-3),
      max_restarts_(max_restarts),
      hooks_(std::move(hooks)),
      supervisor_(supervisor),
      records_(records),
      restarts_(restarts),
      forks_(forks),
      monitor_(floor_s_, options.deadline_multiplier),
      origin_(std::chrono::steady_clock::now()) {
  children_.reserve(ranks.size());
  for (int rank : ranks) {
    Child c;
    c.rank = rank;
    children_.push_back(c);
  }
  // Writing a rollback order to a child that just died must surface as
  // EPIPE, not kill the supervisor.
  old_sigpipe_ = ::signal(SIGPIPE, SIG_IGN);
  if (hooks_.on_metrics_frame) monitor_.set_frame_sink(hooks_.on_metrics_frame);
}

CohortEngine::~CohortEngine() { ::signal(SIGPIPE, old_sigpipe_); }

double CohortEngine::now_s() const {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void CohortEngine::record(const char* event, int rank, int generation,
                          long step, double silence_s, double deadline_s,
                          long epoch) {
  telemetry::LivenessRecord lr;
  lr.event = event;
  lr.rank = rank;
  lr.generation = generation;
  lr.step = step;
  lr.silence_s = silence_s;
  lr.deadline_s = deadline_s;
  lr.epoch = epoch;
  if (hooks_.host_of && rank >= 0) lr.host = hooks_.host_of(rank);
  if (hooks_.on_liveness) hooks_.on_liveness(lr);
  if (records_) records_->push_back(std::move(lr));
  if (supervisor_)
    supervisor_->metrics()
        .counter(-1, std::string("liveness.") + event)
        .add();
}

void CohortEngine::close_child_fds(Child& c) {
  if (c.hb_read >= 0) ::close(c.hb_read);
  if (c.ctl_write >= 0) ::close(c.ctl_write);
  c.hb_read = -1;
  c.ctl_write = -1;
}

void CohortEngine::spawn_one(Child& c, int generation, long restore_epoch) {
  const bool sockets = static_cast<bool>(hooks_.adopt_channels);
  int hb[2] = {-1, -1};
  int ctl[2] = {-1, -1};
  // Survivors outlive many spawns: every parent-side fd of every other
  // child must be closed in this one, or a dead rank's pipes would stay
  // half-open (no EOF, stray readers) for as long as any sibling lives.
  // (Socket channels are per-connection, but tidying them out of a forked
  // sibling is still correct — and free.)
  std::vector<int> close_in_child;
  for (const Child& other : children_) {
    if (other.hb_read >= 0) close_in_child.push_back(other.hb_read);
    if (other.ctl_write >= 0) close_in_child.push_back(other.ctl_write);
  }
  if (!sockets) {
    if (::pipe(hb) != 0) throw std::runtime_error("heartbeat pipe() failed");
    if (::pipe(ctl) != 0) {
      ::close(hb[0]);
      ::close(hb[1]);
      throw std::runtime_error("control pipe() failed");
    }
    // Child's write end never blocks (full pipe drops beacons); parent's
    // read end never blocks (the monitor drains opportunistically).
    ::fcntl(hb[1], F_SETFL, O_NONBLOCK);
    ::fcntl(hb[0], F_SETFL, O_NONBLOCK);
    close_in_child.push_back(hb[0]);
    close_in_child.push_back(ctl[1]);
  }

  pid_t pid = -1;
  try {
    pid = hooks_.spawn(c.rank, generation, restore_epoch, hb[1], ctl[0],
                       close_in_child);
  } catch (...) {
    // No child came to exist: both pipe ends are still ours to clean up.
    for (int fd : {hb[0], hb[1], ctl[0], ctl[1]})
      if (fd >= 0) ::close(fd);
    throw;
  }
  if (!sockets) {
    ::close(hb[1]);
    ::close(ctl[0]);
  }

  c.pid = pid;
  if (sockets) {
    // The child dials its channels back through the rendezvous service;
    // a timeout leaves -1 fds — the rank simply looks silent and the
    // watchdog escalates it like any other hang.
    const std::pair<int, int> chans = hooks_.adopt_channels(c.rank);
    c.hb_read = chans.first;
    c.ctl_write = chans.second;
    if (c.hb_read >= 0) ::fcntl(c.hb_read, F_SETFL, O_NONBLOCK);
  } else {
    c.hb_read = hb[0];
    c.ctl_write = ctl[1];
  }
  c.reaped = false;
  c.done = false;
  c.casualty = false;
  c.escalating = false;
  c.put_down = false;
  c.status = 0;
  c.spawn_round = generation;
  c.esc = Escalation{};
  monitor_.attach(c.rank, c.hb_read, generation, now_s());
  if (forks_) ++*forks_;
}

void CohortEngine::emergency_stop() {
  // A spawn failed mid-round: the cohort is unrecoverable (the missing
  // rank would starve every peer), so tear it down hard and let the
  // SpawnError propagate.  SIGKILL, not SIGTERM — there is nothing to
  // flush gracefully that is worth keeping orphans alive for.
  for (Child& c : children_) {
    if (c.reaped || c.pid <= 0) continue;
    ::kill(c.pid, SIGKILL);
  }
  for (Child& c : children_) {
    if (c.reaped || c.pid <= 0) continue;
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.reaped = true;
    c.status = status;
    monitor_.detach(c.rank);
    close_child_fds(c);
  }
}

void CohortEngine::fail_all(int generation) {
  // Budget exhausted.  Put every survivor down gracefully (their SIGTERM
  // handlers flush telemetry), reap everything, then hand the casualty
  // list to the caller's fail hook — which must throw.
  for (Child& c : children_) {
    if (c.reaped) continue;
    c.put_down = true;
    record("sigterm", c.rank, generation, monitor_.last_step(c.rank), 0, 0,
           -1);
    ::kill(c.pid, SIGTERM);
  }
  const double deadline = now_s() + grace_s_;
  auto reap_pass = [&](bool block) {
    for (Child& c : children_) {
      if (c.reaped) continue;
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, block ? 0 : WNOHANG);
      if (r == c.pid) {
        c.reaped = true;
        c.status = status;
        monitor_.detach(c.rank);
        close_child_fds(c);
        if (!c.done && hooks_.on_rank_down)
          hooks_.on_rank_down(c.rank, WIFEXITED(status));
      }
    }
  };
  while (now_s() < deadline) {
    reap_pass(false);
    bool live = false;
    for (const Child& c : children_)
      if (!c.reaped) live = true;
    if (!live) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (Child& c : children_) {
    if (c.reaped) continue;
    record("sigkill", c.rank, generation, monitor_.last_step(c.rank), 0, 0,
           -1);
    ::kill(c.pid, SIGKILL);
  }
  reap_pass(true);
  if (hooks_.poll_epochs) hooks_.poll_epochs();

  std::vector<EngineFailure> failures;
  for (const Child& c : children_) {
    if (!c.casualty) continue;
    EngineFailure f;
    f.rank = c.rank;
    f.status = c.status;
    f.hung = c.escalating;
    failures.push_back(f);
  }
  if (hooks_.fail) hooks_.fail(failures);
  throw std::runtime_error("cohort failed and no fail hook was installed");
}

void CohortEngine::run(int* generation, long initial_restore_epoch) {
  int g = *generation;
  long epoch = initial_restore_epoch;
  if (hooks_.begin_generation) hooks_.begin_generation(g, epoch);
  try {
    for (Child& c : children_) spawn_one(c, g, epoch);
  } catch (...) {
    emergency_stop();
    throw;
  }
  bool recovering = false;
  // Proof-of-life anchor: the time of the newest down/hang event.  A
  // recovery commits only once every surviving rank has beaconed at or
  // after this point, so a rank that went silent just before a sibling's
  // detection joins the same recovery round instead of wasting a second
  // one (and a second slice of the restart budget) moments later.  A
  // genuinely silent rank cannot hold the commit hostage: its own
  // deadline crosses, it is escalated, and it stops being a survivor.
  double quiesce_after = -1;

  for (;;) {
    const double now = now_s();
    monitor_.poll(now);
    bool progressed = false;

    // Reap and classify.
    for (Child& c : children_) {
      if (c.reaped) continue;
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r != c.pid) continue;
      progressed = true;
      monitor_.poll(now);  // drain the child's final beacons before judging
      const int obs_round = monitor_.observed_round(c.rank);
      const long obs_step = monitor_.last_step(c.rank);
      c.reaped = true;
      c.status = status;
      monitor_.detach(c.rank);
      close_child_fds(c);

      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (clean && obs_round == g && !recovering) {
        c.done = true;
        continue;
      }
      // Every other exit needs a recovery round to respawn this rank:
      //  - a clean exit on a stale round (the rank missed a rollback and
      //    finished old work — harmless, but the new round needs it back),
      //  - a clean exit while a recovery is already pending (its round is
      //    about to be rolled back from under it),
      //  - a put-down ack (kTermAckExit or our escalation SIGKILL),
      //  - and a genuine casualty (fault, crash, peer-lost).
      recovering = true;
      quiesce_after = now;
      if (!clean && !c.put_down) {
        c.casualty = true;
        record("exit_detected", c.rank, g, obs_step, 0, 0, -1);
      }
      // A child that ran its exit path (any exit code) flushed its
      // telemetry on the way out; one torn down by a signal left only
      // its periodic flushes behind — the harvest must be tagged partial.
      if (hooks_.on_rank_down) hooks_.on_rank_down(c.rank, WIFEXITED(status));
    }

    if (hooks_.poll_epochs) hooks_.poll_epochs();

    // Watchdog: silence past the adaptive deadline.
    if (options_.watchdog) {
      for (int rank : monitor_.newly_hung(now)) {
        for (Child& c : children_) {
          if (c.rank != rank || c.reaped || c.escalating) continue;
          c.casualty = true;
          c.escalating = true;
          recovering = true;
          quiesce_after = now;
          record("hang_detected", rank, g, monitor_.last_step(rank),
                 monitor_.silence_s(rank, now), monitor_.deadline_s(rank),
                 -1);
          progressed = true;
        }
      }
    }

    // Escalation ladder for flagged ranks.
    for (Child& c : children_) {
      if (!c.escalating || c.reaped) continue;
      switch (c.esc.next(now, grace_s_)) {
        case Escalation::Action::kSigterm:
          c.put_down = true;
          record("sigterm", c.rank, g, monitor_.last_step(c.rank), 0, 0, -1);
          ::kill(c.pid, SIGTERM);
          progressed = true;
          break;
        case Escalation::Action::kSigkill:
          record("sigkill", c.rank, g, monitor_.last_step(c.rank), 0, 0, -1);
          ::kill(c.pid, SIGKILL);
          progressed = true;
          break;
        case Escalation::Action::kNone:
          break;
      }
    }

    // Commit a recovery round once every rank that needs respawning is
    // dead and reaped (escalations still in flight hold it open) and
    // every survivor has proved it is alive since the last casualty.
    bool respawn_needed = false;
    bool escalation_pending = false;
    bool survivors_fresh = true;
    for (const Child& c : children_) {
      if (c.reaped && !c.done) respawn_needed = true;
      if (c.escalating && !c.reaped) escalation_pending = true;
      if (!c.reaped && !c.escalating &&
          !monitor_.beaconed_since(c.rank, quiesce_after))
        survivors_fresh = false;
    }
    if (recovering && respawn_needed && !escalation_pending &&
        survivors_fresh) {
      bool charged = false;
      for (const Child& c : children_)
        if (c.casualty) charged = true;
      if (charged) {
        // Only genuine casualties consume restart budget; a benign
        // re-sync (stale-round finisher) does not.
        if (restarts_ && *restarts_ >= max_restarts_) fail_all(g);
        if (restarts_) ++*restarts_;
        if (supervisor_)
          supervisor_->metrics().counter(-1, "restart.count").add();
      }
      if (hooks_.poll_epochs) hooks_.poll_epochs();
      ++g;
      epoch = hooks_.committed_epoch ? hooks_.committed_epoch() : -1;
      if (hooks_.begin_generation) hooks_.begin_generation(g, epoch);
      // Roll survivors back first so they re-register in the new round's
      // port registry before the respawned ranks start looking it up.
      for (Child& c : children_) {
        if (c.reaped) continue;
        RollbackMsg msg;
        msg.round = g;
        msg.epoch = epoch;
        unsigned char frame[kRollbackBytes];
        encode_rollback(msg, frame);
        const ssize_t n = ::write(c.ctl_write, frame, kRollbackBytes);
        // EPIPE: the child died between reap passes; the next WNOHANG
        // pass will classify it and trigger another recovery round.
        (void)n;
        ::kill(c.pid, SIGUSR1);
        monitor_.on_recovery_signal(c.rank, g, now_s());
        record("rollback", c.rank, g, monitor_.last_step(c.rank), 0, 0,
               epoch);
      }
      try {
        for (Child& c : children_) {
          if (!c.reaped) continue;
          record("restart", c.rank, g, -1, 0, 0, epoch);
          spawn_one(c, g, epoch);
        }
      } catch (...) {
        emergency_stop();
        throw;
      }
      recovering = false;
      progressed = true;
    }

    bool all_done = true;
    for (const Child& c : children_)
      if (!c.reaped || !c.done) all_done = false;
    if (all_done) break;

    if (!progressed)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  *generation = g + 1;
}

}  // namespace liveness
}  // namespace subsonic
