// perfbench: wall-clock benchmark of whole supervised runs.
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// Each workload is one run_multiprocess2d call on a 2x2 rank grid: four
// rank processes, one kernel thread each, forked from this process.  Every
// call's dumps are gathered and compared bitwise against a SerialDriver2D
// reference of the same mask, params and steps; a call that throws, stops
// at the wrong step or differs counts as failed.
//
// --trace 0 reports the end-to-end metrics (metrics.hpp) from rounds of
// one whole call and one one-step call repeated for --seconds: MLUP/s at
// the median whole-call wall time, the median one-step wall time
// (setup_s) and the peak RSS of the largest rank process.  --trace 1 adds
// a traced call to every round, times the public functions of each module
// from outside, and reports the per-layer metrics; the benchmark's own
// spans go to a Chrome trace beside the binary.  The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/metrics.hpp"
#include "perfbench/workloads.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/decomp/block_decomposition.hpp"
#include "src/io/checkpoint.hpp"
#include "src/runtime/gather.hpp"
#include "src/runtime/process2d.hpp"
#include "src/runtime/rebalancer.hpp"
#include "src/runtime/serial2d.hpp"
#include "src/solver/bc2d.hpp"
#include "src/solver/domain2d.hpp"
#include "src/solver/filter.hpp"
#include "src/solver/lbm2d.hpp"
#include "src/solver/simd.hpp"
#include "src/telemetry/summary.hpp"
#include "src/util/provenance.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace subsonic;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- spans

/// The benchmark's own spans around each call it makes into the program:
/// name, start, end and the enclosing span.  Kept in memory and written
/// as one Chrome trace at the end.  Disabled, a span costs nothing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans* spans, const char* name) : spans_(spans) {
      if (!spans_) return;
      index_ = static_cast<int>(spans_->records_.size());
      const int parent = spans_->open_.empty() ? -1 : spans_->open_.back();
      spans_->records_.push_back({name, spans_->now_us(), 0.0, parent});
      spans_->open_.push_back(index_);
    }
    ~Scope() {
      if (!spans_) return;
      spans_->records_[index_].end_us = spans_->now_us();
      spans_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_ = -1;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  std::size_t size() const { return records_.size(); }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d}}%s\n",
                    r.name, r.start_us, r.end_us - r.start_us, i, r.parent,
                    i + 1 < records_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Record {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

// ------------------------------------------------------------- workdirs

/// A fresh directory under `root`, removed with everything in it when the
/// object dies — also when the run inside it threw.
class Workdir {
 public:
  explicit Workdir(const fs::path& root) {
    static int serial = 0;
    path_ = root / ("w" + std::to_string(::getpid()) + "-" +
                    std::to_string(serial++));
    fs::create_directories(path_);
  }
  ~Workdir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  Workdir(const Workdir&) = delete;
  Workdir& operator=(const Workdir&) = delete;

  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ------------------------------------------------------------ reference

/// Interior rho/vx/vy of a whole-grid state, row-major.
struct Fields {
  long step = 0;
  double run_s = 0;  ///< wall time of SerialDriver2D::run
  std::vector<double> rho, vx, vy;
};

template <typename Field>
void append_interior(const Field& f, std::vector<double>& out) {
  for (int y = 0; y < f.ny(); ++y)
    for (int x = 0; x < f.nx(); ++x) out.push_back(f(x, y));
}

/// The serial reference: one subregion, one thread, same mask and params.
Fields reference(const Workload& w, int steps, Spans& spans) {
  Fields out;
  {
    auto phase = spans.span("reference");
    SerialDriver2D serial(w.mask, w.params, w.method, 1);
    const Clock::time_point t0 = Clock::now();
    {
      auto s = spans.span("SerialDriver2D::run");
      serial.run(steps);
    }
    out.run_s = seconds_since(t0);
    const Domain2D& d = serial.domain();
    out.step = d.step();
    append_interior(d.rho(), out.rho);
    append_interior(d.vx(), out.vx);
    append_interior(d.vy(), out.vy);
  }
  // Hand the serial domain's pages back, so the forked ranks do not
  // inherit them and the rank RSS measures the ranks alone.
  ::malloc_trim(0);
  return out;
}

bool same_bits(const std::vector<double>& ref, const PaddedField2D<double>& f) {
  if (ref.size() != static_cast<std::size_t>(f.nx()) * f.ny()) return false;
  std::size_t i = 0;
  for (int y = 0; y < f.ny(); ++y)
    for (int x = 0; x < f.nx(); ++x, ++i)
      if (std::bit_cast<std::uint64_t>(ref[i]) !=
          std::bit_cast<std::uint64_t>(f(x, y)))
        return false;
  return true;
}

// ---------------------------------------------------------------- calls

/// One checked run_multiprocess2d call and what it left behind.
struct Call {
  bool ok = false;
  std::string error;
  double wall_s = 0;  ///< the run_multiprocess2d call, launch to harvest
  ProcessRunResult result;
  std::string summary_json;              ///< run_summary.json (traced)
  std::vector<telemetry::RankMetrics> supervisor;  ///< (traced)
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Call run_call(const Workload& w, int steps, int trace, const Fields& ref,
              const fs::path& work_root, Spans& spans) {
  auto call = spans.span(trace ? "call.traced" : "call");
  Call c;
  Workdir dir(work_root);
  try {
    const ProcessRunOptions options = perfbench::run_options(w, trace);
    const Clock::time_point t0 = Clock::now();
    {
      auto s = spans.span("run_multiprocess2d");
      c.result = run_multiprocess2d(w.mask, w.params, w.method, w.jx, w.jy,
                                    steps, dir.str(), options);
    }
    c.wall_s = seconds_since(t0);
    if (c.result.final_step != steps)
      throw std::runtime_error("stopped at step " +
                               std::to_string(c.result.final_step));
    GatheredFields2D g;
    if (w.block_side != 0) {
      auto s = spans.span("gather_fields2d_blocked");
      g = gather_fields2d_blocked(w.mask, w.params, w.method, w.jx, w.jy,
                                  w.block_side, dir.str());
    } else {
      auto s = spans.span("gather_fields2d");
      g = gather_fields2d(w.mask, w.params, w.method, w.jx, w.jy, dir.str());
    }
    if (g.step != ref.step || !same_bits(ref.rho, g.rho) ||
        !same_bits(ref.vx, g.vx) || !same_bits(ref.vy, g.vy))
      throw std::runtime_error("fields differ from the serial reference");
    if (trace) {
      c.summary_json = read_file(c.result.summary_path);
      c.supervisor =
          telemetry::read_metrics_jsonl(dir.str() + "/supervisor.metrics.jsonl");
    }
    c.ok = true;
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  return c;
}

/// Attempted and failed calls; a failure is reported on stderr.
struct Tally {
  long attempted = 0;
  long failed = 0;

  void count(const Call& c, const char* what) {
    ++attempted;
    if (!c.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s call failed: %s\n", what,
                   c.error.c_str());
    }
  }
};

/// Steps x fluid cells / wall time, in MLUP/s.
double mlups_of(const Workload& w, double wall_s) {
  return static_cast<double>(w.steps) * w.fluid_cells / wall_s / 1e6;
}

/// What one run's calls measured.
struct Samples {
  std::vector<double> walls;        ///< wall time of each untraced whole call
  std::vector<double> setup_walls;  ///< wall time of each one-step call
  std::vector<double> traced_walls;
  std::vector<Call> traced;  ///< successful traced whole calls
};

/// Runs the workload's calls in turn for `seconds`: an untraced whole
/// call, a one-step call — launch, rendezvous, domain build, one step,
/// final dump and harvest, the fixed cost every run pays — and, with
/// `traced`, a whole call with options.trace = 1.  Interleaving spreads
/// every kind over the whole window, so a slow spell of the shared host
/// hits them alike.  Takes at least three rounds, but never runs past
/// twice `seconds`; stops early once three calls have failed while some
/// kind of call has not succeeded at all.
Samples sample(const Workload& w, int seconds, bool traced, const Fields& ref1,
               const Fields& ref, const fs::path& work_root, Spans& spans,
               Tally& tally) {
  // One untimed call first: page cache, lazy loader and allocator warm-up
  // are not what users of a long-lived host pay per run.
  tally.count(run_call(w, 1, 0, ref1, work_root, spans), "warm-up");

  auto phase = spans.span("calls");
  Samples out;
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < seconds ||
         (out.walls.size() < 3 && seconds_since(t0) < 2.0 * seconds)) {
    const Call c = run_call(w, w.steps, 0, ref, work_root, spans);
    tally.count(c, "timed");
    if (c.ok) out.walls.push_back(c.wall_s);
    const Call one = run_call(w, 1, 0, ref1, work_root, spans);
    tally.count(one, "one-step");
    if (one.ok) out.setup_walls.push_back(one.wall_s);
    if (traced) {
      Call t = run_call(w, w.steps, 1, ref, work_root, spans);
      tally.count(t, "traced");
      if (t.ok) {
        out.traced_walls.push_back(t.wall_s);
        out.traced.push_back(std::move(t));
      }
    }
    if (tally.failed >= 3 && (out.walls.empty() || out.setup_walls.empty() ||
                              (traced && out.traced.empty())))
      break;
  }
  std::vector<double> sorted = out.walls;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty())
    std::printf("%zu rounds in %.1f s; whole-call wall min %.4g median %.4g "
                "max %.4g s\n",
                out.setup_walls.size(), seconds_since(t0), sorted.front(),
                median(sorted), sorted.back());
  return out;
}

using Values = std::map<std::string, double>;

// ------------------------------------------------------ untraced metrics

void end_to_end(const Workload& w, int seconds, const Fields& ref1,
                const Fields& ref, const fs::path& work_root, Spans& spans,
                Tally& tally, Values& v) {
  const Samples s =
      sample(w, seconds, false, ref1, ref, work_root, spans, tally);
  v["mlups"] = s.walls.empty() ? 0.0 : mlups_of(w, median(s.walls));
  v["setup_s"] = median(s.setup_walls);
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  v["rank_peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------- traced metrics

/// Median seconds of `fn` over `n` calls.
double time_calls(int n, const std::function<void()>& fn) {
  std::vector<double> t;
  t.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

double json_number(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = json.find(pat);
  if (at == std::string::npos)
    throw std::runtime_error("run_summary.json lacks " + key);
  return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

double timer_total(const telemetry::RankMetrics& rm, const std::string& name) {
  const auto it = rm.timers.find(name);
  return it == rm.timers.end() ? 0.0 : it->second.total_s;
}

/// Rank 0's subregion as a standalone Domain2D, one kernel thread.
Domain2D rank0_domain(const Workload& w) {
  const Box2 box = Decomposition2D(w.mask.extents(), w.jx, w.jy).box(0);
  return Domain2D(w.mask, box, w.params, w.method,
                  required_ghost(w.method, w.params.filter_eps > 0.0), 1);
}

/// solver.*: the phase functions, per call, on rank 0's box.
void solver_layer(Domain2D& d, Spans& spans, Values& v) {
  auto phase = spans.span("solver_layer");
  const double cells = static_cast<double>(d.box().count());
  const int reps = std::max(20, static_cast<int>(4e6 / cells));
  std::vector<double> cs, mo, fi, bc;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      auto s = spans.span("collide_stream");
      lbm2d::collide_stream(d);
    }
    cs.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      auto s = spans.span("moments");
      lbm2d::moments(d);
    }
    mo.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      auto s = spans.span("filter2d");
      filter2d(d);
    }
    fi.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      auto s = spans.span("apply_bc2d");
      apply_bc2d(d);
    }
    bc.push_back(seconds_since(t0));
  }
  const double cs_s = median(cs);
  v["solver.collide_stream_ms"] = cs_s * 1e3;
  v["solver.moments_ms"] = median(mo) * 1e3;
  v["solver.filter_ms"] = median(fi) * 1e3;
  v["solver.bc_ms"] = median(bc) * 1e3;
  // Computed, not measured: 168 B per update is the D2Q9 model (9 reads
  // and 9 writes of 8 B, plus rho/vx/vy) and ignores cache effects.
  v["solver.collide_stream_gbps_computed"] = 168.0 * cells / cs_s / 1e9;
  v["solver.collide_stream_array_mb"] = 2.0 * d.q() * 8.0 * cells / (1 << 20);
  std::printf("rank-0 box %dx%d, %d phase repetitions\n", d.nx(), d.ny(),
              reps);
}

/// io.*: one rank's dump, the unit the runtime writes and restores.
void io_layer(Domain2D& d, const fs::path& work_root, Spans& spans,
              Values& v) {
  auto phase = spans.span("io_layer");
  Workdir dir(work_root);
  const std::string path = dir.str() + "/rank0.dump";
  v["io.save_domain_ms"] = 1e3 * time_calls(5, [&] {
    auto s = spans.span("save_domain");
    save_domain(d, path);
  });
  v["io.restore_domain_ms"] = 1e3 * time_calls(5, [&] {
    auto s = spans.span("restore_domain");
    restore_domain(d, path);
  });
  v["io.dump_mb"] = static_cast<double>(fs::file_size(path)) / (1 << 20);
}

/// runtime.*, comm.* (counters), rebalance.* (records), io.ckpt_* and
/// perfmodel.* from one traced call.
void run_layers(const Workload& w, const Call& c, double setup_s, Values& v) {
  const ProcessRunResult& r = c.result;
  double tcalc_max = 0, tcalc_sum = 0, tcom_max = 0, busy_max = 0;
  double exchange_max = 0, wait_max = 0;
  long long msgs = 0, doubles = 0;
  double capture = 0, flush = 0, restore = 0;
  telemetry::HistogramData steps;
  for (const telemetry::RankMetrics& rm : r.rank_metrics) {
    tcalc_max = std::max(tcalc_max, rm.t_calc());
    tcalc_sum += rm.t_calc();
    tcom_max = std::max(tcom_max, rm.t_com());
    busy_max = std::max(busy_max, rm.t_calc() + rm.t_com());
    // The exchange phases of either schedule; T_com also holds the
    // start-of-run sync and the final flush.
    exchange_max = std::max(exchange_max,
                            timer_total(rm, "comm.exchange") +
                                timer_total(rm, "comm.post_sends") +
                                timer_total(rm, "comm.complete_recvs"));
    wait_max = std::max(wait_max, timer_total(rm, "transport.recv_wait"));
    msgs += rm.counter_or("transport.msgs_sent");
    doubles += rm.counter_or("transport.doubles_sent");
    capture += timer_total(rm, "ckpt.capture");
    flush += timer_total(rm, "ckpt.flush");
    restore += timer_total(rm, "ckpt.restore");
    if (const auto it = rm.histograms.find("step.wall");
        it != rm.histograms.end()) {
      for (std::size_t i = 0; i < steps.buckets.size(); ++i)
        steps.buckets[i] += it->second.buckets[i];
      steps.count += it->second.count;
      steps.sum_s += it->second.sum_s;
    }
  }
  const double ranks = static_cast<double>(r.rank_metrics.size());
  const double rank_steps = ranks * w.steps;
  v["runtime.t_calc_max_s"] = tcalc_max;
  v["runtime.t_com_max_s"] = tcom_max;
  v["runtime.exchange_s"] = exchange_max;
  v["runtime.imbalance"] = tcalc_sum > 0 ? tcalc_max * ranks / tcalc_sum : 0;
  const telemetry::Percentiles pct = telemetry::percentiles_of(steps);
  v["runtime.step_p50_ms"] = pct.p50_s * 1e3;
  v["runtime.step_p99_ms"] = pct.p99_s * 1e3;
  v["runtime.unattributed_s"] = c.wall_s - setup_s - busy_max;
  v["runtime.forks"] = r.forks;
  v["runtime.restarts"] = r.restarts;
  v["runtime.measured_f"] = json_number(c.summary_json, "measured_f");
  // The paper's cluster shares one Ethernet bus between all hosts.
  v["perfmodel.predicted_f"] =
      json_number(c.summary_json, "predicted_f_shared_bus");

  v["comm.msgs_per_rank_step"] = msgs / rank_steps;
  v["comm.bytes_per_rank_step"] = 8.0 * doubles / rank_steps;
  v["comm.recv_wait_s"] = wait_max;

  double before = 0, after = 0;
  int moved = 0;
  for (const telemetry::RebalanceRecord& rr : r.rebalances) {
    moved += rr.moved_blocks;
    before += rr.imbalance_before;
    after += rr.imbalance_after;
  }
  const double n = static_cast<double>(r.rebalances.size());
  v["rebalance.count"] = n;
  v["rebalance.moved_blocks"] = moved;
  v["rebalance.imbalance_before"] = n > 0 ? before / n : 0;
  v["rebalance.imbalance_after_predicted"] = n > 0 ? after / n : 0;

  double commit = 0;
  for (const telemetry::RankMetrics& rm : c.supervisor)
    commit += timer_total(rm, "ckpt.commit");
  v["io.ckpt_capture_s"] = capture;
  v["io.ckpt_flush_s"] = flush;
  v["io.ckpt_commit_s"] = commit;
  v["io.ckpt_restore_s"] = restore;
}

/// rebalance.propose_us on the run's measured costs, and decomp.*.
void decision_layers(const Workload& w, const Call& c, Spans& spans,
                     Values& v) {
  auto phase = spans.span("decision_layers");
  const ProcessRunResult& r = c.result;
  const int ghost = w.mask.ghost();
  std::vector<int> owner;
  std::vector<BlockCost> costs;
  if (w.block_side != 0) {
    const BlockDecomposition2D bd(w.mask, w.jx, w.jy, w.block_side, ghost);
    owner = r.block_owner;
    for (int b = 0; b < bd.block_count(); ++b) {
      if (!bd.block_active(b)) continue;
      double t = 0;
      for (const telemetry::RankMetrics& rm : r.rank_metrics)
        t += timer_total(rm, "compute.block_" + std::to_string(b));
      costs.push_back({b, t, bd.block_cells(b)});
    }
    v["decomp.active_blocks"] = static_cast<double>(costs.size());
    v["decomp.build_ms"] = 1e3 * time_calls(20, [&] {
      const BlockDecomposition2D built(w.mask, w.jx, w.jy, w.block_side,
                                       ghost);
      (void)built;
    });
  } else {
    // Monolithic: each active rank is one block of its whole subregion.
    const Decomposition2D dec(w.mask.extents(), w.jx, w.jy);
    for (const telemetry::RankMetrics& rm : r.rank_metrics) {
      owner.push_back(rm.rank);
      costs.push_back({rm.rank, rm.t_calc(), dec.box(rm.rank).count()});
    }
    v["decomp.active_blocks"] = static_cast<double>(r.processes);
    v["decomp.build_ms"] = 1e3 * time_calls(20, [&] {
      const Decomposition2D built(w.mask.extents(), w.jx, w.jy);
      (void)built;
    });
  }
  v["rebalance.propose_us"] = 1e6 * time_calls(200, [&] {
    auto s = spans.span("propose_rebalance");
    const RebalanceDecision d = propose_rebalance(
        owner, costs, w.jx * w.jy, w.rebalance_threshold);
    (void)d;
  });
}

/// comm.tcp_rtt_us: a two-rank TcpTransport ping-pong at `doubles` per
/// message.
double tcp_rtt_us(std::size_t doubles, const fs::path& work_root,
                 Spans& spans) {
  auto phase = spans.span("comm_ping_pong");
  Workdir dir(work_root);
  TcpTransport t(2, dir.str() + "/ports");
  const std::vector<double> payload(std::max<std::size_t>(doubles, 1), 1.0);
  long tag = 0;
  const auto round_trip = [&] {
    {
      auto s = spans.span("TcpTransport::send");
      t.send(0, 1, make_tag(tag, 0, 0), payload);
    }
    {
      auto s = spans.span("TcpTransport::recv");
      t.recv(1, 0, make_tag(tag, 0, 0));
    }
    {
      auto s = spans.span("TcpTransport::send");
      t.send(1, 0, make_tag(tag, 0, 1), payload);
    }
    {
      auto s = spans.span("TcpTransport::recv");
      t.recv(0, 1, make_tag(tag, 0, 1));
    }
    ++tag;
  };
  time_calls(20, round_trip);
  return 1e6 * time_calls(400, round_trip);
}

void per_layer(const Workload& w, int seconds, const Fields& ref1,
               const Fields& ref, const fs::path& work_root,
               Spans& spans, Tally& tally, Values& v) {
  Samples s = sample(w, seconds, true, ref1, ref, work_root, spans, tally);
  if (s.traced.empty() || s.walls.empty() || s.setup_walls.empty())
    throw std::runtime_error("no traced, timed or one-step call succeeded");
  std::sort(s.traced.begin(), s.traced.end(),
            [](const Call& a, const Call& b) { return a.wall_s < b.wall_s; });
  const Call& mid = s.traced[s.traced.size() / 2];
  const double setup_s = median(s.setup_walls);

  run_layers(w, mid, setup_s, v);
  decision_layers(w, mid, spans, v);
  const double serial_mlups = mlups_of(w, ref.run_s);
  v["solver.serial_mlups"] = serial_mlups;
  v["runtime.parallel_efficiency"] =
      mlups_of(w, median(s.walls)) / (w.jx * w.jy * serial_mlups);
  v["telemetry.trace_overhead"] =
      median(s.traced_walls) / median(s.walls) - 1.0;

  // The counters keep no size distribution, so the ping-pong uses the
  // run's mean message size.
  const double msgs = v["comm.msgs_per_rank_step"];
  const double doubles_per_msg =
      msgs > 0 ? v["comm.bytes_per_rank_step"] / 8.0 / msgs : 1.0;
  v["comm.tcp_rtt_us"] = tcp_rtt_us(
      static_cast<std::size_t>(doubles_per_msg + 0.5), work_root, spans);
  std::printf("ping-pong message: %.0f doubles (mean message size)\n",
              doubles_per_msg);

  Domain2D d = rank0_domain(w);
  solver_layer(d, spans, v);
  io_layer(d, work_root, spans, v);
}

// ------------------------------------------------------------------ CLI

[[noreturn]] void usage(const std::string& why, int code = 2) {
  std::string names;
  for (const std::string& n : perfbench::workload_names())
    names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload %s --seed N [--seconds S] "
               "[--trace 0|1]\n",
               why.c_str(), names.c_str());
  std::exit(code);
}

/// A whole-string unsigned decimal in [lo, hi], or usage().
std::uint64_t parse_number(const std::string& flag, const std::string& s,
                           std::uint64_t lo, std::uint64_t hi) {
  if (s.empty() || s.size() > 19 ||
      s.find_first_not_of("0123456789") != std::string::npos)
    usage(flag + " needs a number, got '" + s + "'");
  const std::uint64_t n = std::stoull(s);
  if (n < lo || n > hi)
    usage(flag + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "]");
  return n;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int seconds = 10;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage("help requested", 0);
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace")
      usage("unknown argument '" + flag + "'");
    if (i + 1 >= argc) usage("missing value for '" + flag + "'");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto& names = perfbench::workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end())
        usage("unknown workload '" + value + "'");
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_number(flag, value, 0, UINT64_MAX / 2);
      a.have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_number(flag, value, 1, 60));
    } else {
      a.trace = static_cast<int>(parse_number(flag, value, 0, 1));
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.have_seed) usage("--seed is required");
  return a;
}

/// Drops every SUBSONIC_* variable, so no ambient fault plan, launcher,
/// thread count, block side, flush interval, status port, liveness
/// channel, SIMD level or trace switch changes what is measured.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SUBSONIC_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
}

template <std::size_t N>
void print_result(const Tally& tally, const Values& v,
                  const perfbench::MetricDef (&defs)[N]) {
  std::string metrics;
  for (const perfbench::MetricDef& m : defs) {
    const auto it = v.find(m.name);
    if (it == v.end())
      throw std::logic_error(std::string("metric not measured: ") + m.name);
    std::printf("%-40s %.6g %s\n", m.name, it->second, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, it->second, m.unit);
    metrics += buf;
  }
  const double failed_share =
      tally.attempted > 0 ? double(tally.failed) / tally.attempted : 1.0;
  std::printf("%-40s %.6g fraction (%ld of %ld calls)\n", "failed_share",
              failed_share, tally.failed, tally.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  scrub_environment();
  const Args args = parse_args(argc, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // Everything the benchmark writes lives beside its binary, inside the
  // build tree; the working directory is never written.
  const fs::path home = fs::read_symlink("/proc/self/exe").parent_path();
  fs::current_path(home);
  const fs::path work_root = home / "work";

  try {
    const Workload w = perfbench::make_workload(args.workload, args.seed);
    std::printf("provenance: %s\n",
                provenance_json(collect_provenance()).c_str());
    std::printf("simd: %s\n", simd_name(active_simd()));
    std::printf("workload %s seed %llu: %dx%d, %lld fluid cells, %d steps, "
                "%zu obstacles, block side %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.mask.extents().nx, w.mask.extents().ny,
                static_cast<long long>(w.fluid_cells), w.steps,
                w.obstacles.size(), w.block_side);

    Spans spans(args.trace == 1);
    Tally tally;
    Values v;
    const Fields ref1 = reference(w, 1, spans);
    const Fields ref = reference(w, w.steps, spans);

    if (args.trace == 0) {
      end_to_end(w, args.seconds, ref1, ref, work_root, spans, tally, v);
      print_result(tally, v, perfbench::kEndToEnd);
    } else {
      per_layer(w, args.seconds, ref1, ref, work_root, spans, tally, v);
      const std::string trace_path =
          (home / ("trace-" + w.name + "-" + std::to_string(args.seed) +
                   ".json")).string();
      spans.write_chrome_trace(trace_path);
      std::printf("wrote %zu spans to %s\n", spans.size(), trace_path.c_str());
      print_result(tally, v, perfbench::kPerLayer);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    fs::remove(work_root, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove(work_root, ec);  // only when empty
  return 0;
}
