// Measures what the overlap schedule buys: the same run executed with
// Scheduling::kLegacy (compute everything, then exchange) and
// Scheduling::kOverlap (compute the boundary band, post the sends,
// compute the interior while the messages are in flight, then receive).
// The InMemoryTransport link model supplies a nonzero T_com = latency +
// boundary / bandwidth per message, so the benchmark shows the paper's
// effect directly: under kLegacy the link delay is serialized into every
// step, under kOverlap it is hidden behind the interior computation and
// per-step wall time drops back toward the zero-latency figure.
//
// Timings come from the driver's telemetry registry, which also supplies
// the per-phase breakdown written into the JSON: each rank's compute time
// under its block's "compute.block_<id>" timer (one block per rank here,
// so block id = rank) and its comm time under "comm.exchange" (legacy) or
// "comm.post_sends" / "comm.complete_recvs" (overlap) — the overlap story
// is visible phase by phase, not just in the totals.
//
// Results are printed as a table and written as JSON (argv[1], default
// BENCH_overlap.json) so the measurement can be committed with the code.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/subsonic.hpp"
#include "src/util/provenance.hpp"

namespace {

using namespace subsonic;

struct Config {
  const char* method_name;
  Method method;
  double latency_s;  // per-message link latency of the in-memory fabric
};

struct Result {
  std::string method;
  std::string sched;
  double latency_s = 0;
  double wall_per_step_ms = 0;
  double compute_s = 0;  // summed over workers
  double comm_s = 0;     // summed over workers
  std::map<std::string, double> phase_s;  // per-phase totals over workers
};

Result run_case(const Config& cfg, Scheduling sched, int side, int steps) {
  Mask2D mask(Extents2{side, side}, 1);
  mask.fill_box({side / 4, side / 4, side / 4 + 8, side / 4 + 8},
                NodeType::kWall);
  FluidParams p;
  p.dt = cfg.method == Method::kLatticeBoltzmann ? 1.0 : 0.3;
  p.nu = 0.05;
  p.periodic_x = p.periodic_y = true;

  InMemoryOptions opt;
  opt.latency_s = cfg.latency_s;
  auto transport = std::make_shared<InMemoryTransport>(4, opt);
  BlockedDriver<2> drv(mask, p, cfg.method, GridShape{2, 2},
                       /*block_side=*/0, transport, sched);

  drv.run(2);  // warm-up: first-touch pages, thread creation
  const auto t0 = std::chrono::steady_clock::now();
  drv.run(steps);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.method = cfg.method_name;
  r.sched = sched == Scheduling::kOverlap ? "overlap" : "legacy";
  r.latency_s = cfg.latency_s;
  r.wall_per_step_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / steps;
  for (int rank = 0; rank < 4; ++rank) {
    const telemetry::RankMetrics m =
        telemetry::collect_rank(drv.telemetry().metrics(), rank);
    r.compute_s += m.t_calc();
    r.comm_s += m.t_com();
    for (const auto& [name, t] : m.timers) r.phase_s[name] += t.total_s;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int side = 192;
  const int steps = 40;
  const Config configs[] = {
      {"lb", Method::kLatticeBoltzmann, 0.0},
      {"lb", Method::kLatticeBoltzmann, 1.5e-3},
      {"fd", Method::kFiniteDifference, 0.0},
      {"fd", Method::kFiniteDifference, 1.5e-3},
  };

  std::printf("Overlap benchmark: %dx%d grid, (2x2) decomposition, "
              "%d steps\n\n", side, side, steps);
  std::printf("%-7s %-10s %-12s %-14s %-12s %s\n", "method", "sched",
              "latency_ms", "wall_ms/step", "compute_s", "comm_s");

  std::vector<Result> results;
  for (const Config& cfg : configs)
    for (Scheduling sched : {Scheduling::kLegacy, Scheduling::kOverlap}) {
      const Result r = run_case(cfg, sched, side, steps);
      std::printf("%-7s %-10s %-12.2f %-14.3f %-12.4f %.4f\n",
                  r.method.c_str(), r.sched.c_str(), r.latency_s * 1e3,
                  r.wall_per_step_ms, r.compute_s, r.comm_s);
      results.push_back(r);
    }

  const std::string path = argc > 1 ? argv[1] : "BENCH_overlap.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"provenance\": %s,\n",
               provenance_json(collect_provenance()).c_str());
  std::fprintf(f, "  \"grid\": [%d, %d],\n  \"decomposition\": [2, 2],"
                  "\n  \"steps\": %d,\n  \"cases\": [\n", side, side, steps);
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"method\": \"%s\", \"sched\": \"%s\", "
                 "\"latency_ms\": %.3f, \"wall_ms_per_step\": %.4f, "
                 "\"compute_s\": %.5f, \"comm_s\": %.5f,\n"
                 "     \"phases\": {",
                 r.method.c_str(), r.sched.c_str(), r.latency_s * 1e3,
                 r.wall_per_step_ms, r.compute_s, r.comm_s);
    size_t k = 0;
    for (const auto& [name, secs] : r.phase_s) {
      std::fprintf(f, "%s\"%s\": %.5f", k ? ", " : "", name.c_str(), secs);
      ++k;
    }
    std::fprintf(f, "}}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  // The paper's point, stated on the way out.
  std::printf("\nWith a nonzero link delay the legacy schedule serializes "
              "T_com into every step;\nthe overlap schedule hides it "
              "behind the interior computation (section 8:\n"
              "f = (1 + T_com/T_calc)^-1 improves as the exposed T_com "
              "shrinks).\n");
  return 0;
}
