// Names and units of every metric the benchmark reports.  BENCHMARK.json
// at the repository root lists the same names (the tests check both
// stay in step); the "better" direction and the bounds live there only.
#pragma once

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"mlups", "MLUP/s"},
    {"setup_s", "s"},
    {"rank_peak_rss_mb", "MiB"},
};

/// Reported by the traced run (--trace 1), named after the modules.
inline constexpr MetricDef kPerLayer[] = {
    {"solver.serial_mlups", "MLUP/s"},
    {"solver.collide_stream_ms", "ms"},
    {"solver.moments_ms", "ms"},
    {"solver.filter_ms", "ms"},
    {"solver.bc_ms", "ms"},
    {"solver.collide_stream_gbps_computed", "GB/s"},
    {"solver.collide_stream_array_mb", "MiB"},
    {"comm.msgs_per_rank_step", "count"},
    {"comm.bytes_per_rank_step", "B"},
    {"comm.recv_wait_s", "s"},
    {"comm.tcp_rtt_us", "us"},
    {"runtime.t_calc_max_s", "s"},
    {"runtime.t_com_max_s", "s"},
    {"runtime.exchange_s", "s"},
    {"runtime.imbalance", "ratio"},
    {"runtime.step_p50_ms", "ms"},
    {"runtime.step_p99_ms", "ms"},
    {"runtime.unattributed_s", "s"},
    {"runtime.forks", "count"},
    {"runtime.restarts", "count"},
    {"runtime.measured_f", "fraction"},
    {"runtime.parallel_efficiency", "fraction"},
    {"perfmodel.predicted_f", "fraction"},
    {"rebalance.count", "count"},
    {"rebalance.moved_blocks", "count"},
    {"rebalance.imbalance_before", "ratio"},
    {"rebalance.imbalance_after_predicted", "ratio"},
    {"rebalance.propose_us", "us"},
    {"io.ckpt_capture_s", "s"},
    {"io.ckpt_flush_s", "s"},
    {"io.ckpt_commit_s", "s"},
    {"io.ckpt_restore_s", "s"},
    {"io.save_domain_ms", "ms"},
    {"io.restore_domain_ms", "ms"},
    {"io.dump_mb", "MiB"},
    {"decomp.active_blocks", "count"},
    {"decomp.build_ms", "ms"},
    {"telemetry.trace_overhead", "fraction"},
};

}  // namespace perfbench
