//! Every metric the benchmark prints: name, unit, direction. `BENCHMARK.json`
//! lists the same names; the smoke test holds the two together.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` = higher is better.
    pub higher: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
    }
}

/// Measured with tracing off, reported by every workload, bounded in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "1/s"),
    lo("peak_rss_mb", "MiB"),
];

/// Reported by a traced run. The first eight are end-to-end results that
/// cannot carry a bound: five exist on some workloads only (0 elsewhere),
/// and the wall-clock ones (`ops_per_wall_s`, the tick latencies) do not
/// repeat within 15 % on a shared two-core VM. The rest are single layers.
/// Times are per pass.
pub const PER_LAYER: &[MetricDef] = &[
    hi("ops_per_wall_s", "1/s"),
    lo("tick_p50_us", "us"),
    lo("tick_p99_us", "us"),
    lo("est_rel_err", "ratio"),
    lo("recover_s", "s"),
    lo("failover_s", "s"),
    lo("wal_bytes_per_op", "B/op"),
    lo("fail_ratio", "ratio"),
    lo("workload.build_ns", "ns"),
    lo("engine.plan_ns", "ns"),
    lo("engine.plan_calls", "count"),
    lo("engine.exec_ns", "ns"),
    lo("engine.exec_calls", "count"),
    lo("engine.units", "count"),
    lo("engine.ns_per_unit", "ns"),
    lo("engine.cost_qerr_p50", "ratio"),
    lo("engine.cost_qerr_p95", "ratio"),
    lo("sim.step_ns", "ns"),
    lo("sim.step_self_ns", "ns"),
    lo("sim.steps", "count"),
    lo("sim.events", "count"),
    lo("sim.drain_ns", "ns"),
    lo("sim.snapshot_ns", "ns"),
    lo("sim.snapshot_calls", "count"),
    lo("sim.running_max", "count"),
    lo("sim.queued_max", "count"),
    lo("pi.apply_ns", "ns"),
    lo("pi.apply_calls", "count"),
    lo("pi.advance_ns", "ns"),
    lo("pi.advance_calls", "count"),
    lo("pi.pump_ns", "ns"),
    lo("pi.pump_calls", "count"),
    lo("pi.checks", "count"),
    lo("pi.pushes", "count"),
    lo("pi.suppressed", "count"),
    hi("pi.push_ratio", "ratio"),
    lo("pi.ns_per_check", "ns"),
    lo("pi.subs", "count"),
    lo("pi.estimates_full_ns", "ns"),
    lo("pi.estimates_full_calls", "count"),
    lo("pi.live_max", "count"),
    lo("pi.queued_max", "count"),
    lo("pi.rejected", "count"),
    lo("pi.mirror_apply_ns", "ns"),
    lo("pi.mirror_events", "count"),
    lo("pi.mirror_estimate_ns", "ns"),
    lo("pi.mirror_estimate_calls", "count"),
    lo("pi.mirror_quarantined", "count"),
    lo("core.delta_ops", "count"),
    lo("core.full_rebuilds", "count"),
    lo("core.incr_delta_ns", "ns"),
    lo("core.incr_estimate_ns", "ns"),
    lo("core.predict_ns", "ns"),
    lo("core.predict_calls", "count"),
    lo("core.predict_n_mean", "count"),
    lo("wal.append_ns", "ns"),
    lo("wal.records", "count"),
    lo("wal.bytes", "B"),
    lo("wal.commit_ns", "ns"),
    lo("wal.flushes", "count"),
    lo("wal.flush_us_p50", "us"),
    lo("wal.flush_us_p99", "us"),
    lo("wal.compact_ns", "ns"),
    lo("wal.compactions", "count"),
    lo("wal.scan_ns", "ns"),
    lo("wal.replay_ns", "ns"),
    lo("wal.replay_records", "count"),
    hi("wal.replay_records_per_s", "1/s"),
    lo("wal.standby_catchup_ns", "ns"),
    lo("wal.standby_catchup_calls", "count"),
    hi("wal.standby_scan_ratio", "ratio"),
    lo("wal.standby_lag_max", "count"),
    lo("wal.promote_ns", "ns"),
    lo("ckpt.encode_ns", "ns"),
    lo("ckpt.bytes", "B"),
    lo("ckpt.restore_ns", "ns"),
    lo("obs.on_overhead_pct", "%"),
    lo("driver.wall_ns", "ns"),
    lo("driver.self_ns", "ns"),
    lo("driver.tick_p999_us", "us"),
    lo("driver.trace_overhead_pct", "%"),
    lo("driver.budget_gap_pct", "%"),
    lo("driver.pi_share_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["sql_pipeline", "sim_churn", "fanout_idle", "durable_churn"];
