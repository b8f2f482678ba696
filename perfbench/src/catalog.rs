//! The benchmark's metric catalogue: every metric's name, unit and
//! direction, and for each per-layer metric the end-to-end metric and
//! workload it is predicted to move. `BENCHMARK.json` lists the same
//! names and units; a self-test keeps the two in step.

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `<crate>.<metric>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// For a per-layer metric, what it should move, and where.
    pub predicts: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    predicts: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        predicts,
    }
}

/// End-to-end metrics of every untraced run's result line.
/// `peak_rss_mb` and `failed_frac` are printed beside them.
pub const END_TO_END: [MetricDef; 3] = [
    m("refs_per_s", "1/s", "higher", "host time"),
    m("sim_slowdown", "ratio", "lower", "simulated time"),
    m("setup_s", "s", "lower", "host time"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 34] = [
    m(
        "workload.gen_ns_per_ref",
        "ns",
        "lower",
        "refs_per_s on user-64k (less on user-4k)",
    ),
    m(
        "sim.trial_ms_p50",
        "ms",
        "lower",
        "refs_per_s on user-4k, user-64k",
    ),
    m(
        "sim.trial_ms_tail",
        "ms",
        "lower",
        "refs_per_s on user-4k, user-64k",
    ),
    m(
        "sim.trial_fixed_ms",
        "ms",
        "lower",
        "refs_per_s on paper-sweep; setup_s",
    ),
    m(
        "sim.fast_word_share",
        "ratio",
        "higher",
        "refs_per_s on user-64k",
    ),
    m("sim.ns_per_trap", "ns", "lower", "refs_per_s on user-4k"),
    m(
        "core.traps_per_kref",
        "count/kref",
        "lower",
        "fixed by the model; base of sim.ns_per_trap",
    ),
    m(
        "core.sched_replay_ratio",
        "ratio",
        "higher",
        "refs_per_s on user-4k",
    ),
    m(
        "core.victim_memo_hits",
        "count",
        "higher",
        "refs_per_s on user-4k",
    ),
    m(
        "core.miss_batch_flushes",
        "count",
        "lower",
        "refs_per_s on user-4k",
    ),
    m(
        "core.sched_sig_misses",
        "count",
        "lower",
        "refs_per_s on user-4k",
    ),
    m(
        "core.handle_miss_ns",
        "ns",
        "lower",
        "refs_per_s on user-4k; none on user-64k",
    ),
    m(
        "core.burst_ns_per_miss",
        "ns",
        "lower",
        "refs_per_s on user-4k; none on user-64k",
    ),
    m(
        "mem.traps_set_per_kref",
        "count/kref",
        "lower",
        "refs_per_s on user-4k",
    ),
    m(
        "mem.traps_cleared_per_kref",
        "count/kref",
        "lower",
        "refs_per_s on user-4k",
    ),
    m("mem.clean_span_ns", "ns", "lower", "refs_per_s on user-64k"),
    m(
        "mem.sparse_chunks",
        "count",
        "lower",
        "peak_rss_mb and setup_s on all workloads",
    ),
    m(
        "mem.chunk_faults",
        "count",
        "lower",
        "peak_rss_mb and setup_s on all workloads",
    ),
    m(
        "machine.tcache_hit_ratio",
        "ratio",
        "higher",
        "refs_per_s on paper-sweep",
    ),
    m(
        "machine.clock_interrupts",
        "count",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "os.page_walks_per_kref",
        "count/kref",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "os.sched_quanta",
        "count",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "os.page_faults",
        "count",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "os.tasks_created",
        "count",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "stats.worker_busy_frac",
        "ratio",
        "higher",
        "refs_per_s on paper-sweep",
    ),
    m(
        "stats.commit_gap_ms_tail",
        "ms",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m("stats.retries", "count", "lower", "failed_frac"),
    m("stats.trials_failed", "count", "lower", "failed_frac"),
    m("server.submit_ms", "ms", "lower", "setup_s on paper-sweep"),
    m(
        "server.cache_hit_ms_p50",
        "ms",
        "lower",
        "the service read path on paper-sweep",
    ),
    m(
        "server.sink_bytes",
        "B",
        "lower",
        "refs_per_s on paper-sweep",
    ),
    m(
        "trace.refs_per_s",
        "1/s",
        "higher",
        "refs_per_s under tracing; compare with the untraced run",
    ),
    m(
        "trace.span_ns",
        "ns",
        "lower",
        "the cost of recording one span",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "spans recorded x span_ns over the timed wall time",
    ),
];
