//! Microbenchmarks for the `TrapMap` primitives and the per-miss
//! handler path, writing `results/MICROBENCH.json`
//! (`tapeworm-microbench-v1`).
//!
//! End-to-end refs/sec (`perf_throughput`) is the gate, but it folds
//! every layer together — a bitmap-scan regression hides behind a
//! scheduler win and vice versa. This harness times the primitives the
//! miss/trap hot path is built from, each in the shape the engine
//! actually uses:
//!
//! * `clean_span` over a clean stretch (the fast-path batch sizing),
//!   over an immediately-trapped granule (the walk's trapped-chunk probe) and
//!   over a sparsely trapped frame (the mid-frame scan);
//! * `frame_clean` (the O(1) clean-frame filter);
//! * `set_range`/`clear_range` at line size (per-miss re-arm/service)
//!   and page size (page registration);
//! * `recount` (the chunked full-bitmap population sweep);
//! * `handle_miss` end to end on a direct-mapped 4 KiB Tapeworm — the
//!   representative per-miss cost of the engine's inline miss service.
//!
//! Build with the `microbench` feature:
//! `cargo run --release --features microbench --bin microbench_trapset`.
//! Wall-clock noise makes these numbers hosts-local signals, not CI
//! gates; the JSON is informational.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tapeworm_core::{CacheConfig, CostModel, Tapeworm};
use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr};
use tapeworm_obs::write_atomic;
use tapeworm_os::Tid;
use tapeworm_stats::SeedSeq;

/// Schema identifier stamped into the microbench artifact.
const MICROBENCH_SCHEMA: &str = "tapeworm-microbench-v1";

/// One timed case: median-of-batches nanoseconds per operation.
struct Case {
    name: &'static str,
    ns_per_op: f64,
    ops: u64,
}

/// Times `op` over `per_batch` iterations × `batches`, returning the
/// median batch's ns/op — robust against a stray descheduling blip.
fn time_case(batches: usize, per_batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for i in 0..per_batch {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

const MEM_BYTES: u64 = 16 * 1024 * 1024;
const LINE: u64 = 16;
const PAGE: u64 = 4096;

fn main() {
    let batches = 7;
    let mut cases: Vec<Case> = Vec::new();
    let mut push = |name, per_batch: u64, ns| {
        println!("  {name:<28} {ns:>9.2} ns/op");
        cases.push(Case {
            name,
            ns_per_op: ns,
            ops: per_batch,
        });
    };
    println!("microbench_trapset: {MEM_BYTES} bytes, granule {LINE}");

    // A clean map: the fast path's whole-frame filter and long-span
    // scan.
    let clean = TrapMap::new(MEM_BYTES, LINE);
    let n = 1_000_000;
    push(
        "frame_clean",
        n,
        time_case(batches, n, |i| {
            black_box(clean.frame_clean(PhysAddr::new((i * PAGE) % MEM_BYTES)));
        }),
    );
    push(
        "clean_span_clean_page",
        n,
        time_case(batches, n, |i| {
            black_box(clean.clean_span(PhysAddr::new((i * PAGE) % MEM_BYTES), PAGE));
        }),
    );

    // A sparsely trapped map: one trapped line per page, mid-frame.
    let mut sparse = TrapMap::new(MEM_BYTES, LINE);
    for page in 0..(MEM_BYTES / PAGE) {
        sparse.set_range(PhysAddr::new(page * PAGE + PAGE / 2), LINE);
    }
    push(
        "clean_span_half_page",
        n,
        time_case(batches, n, |i| {
            black_box(sparse.clean_span(PhysAddr::new((i * PAGE) % MEM_BYTES), PAGE));
        }),
    );
    push(
        "clean_span_trapped_head",
        n,
        time_case(batches, n, |i| {
            black_box(sparse.clean_span(PhysAddr::new((i * PAGE) % MEM_BYTES + PAGE / 2), PAGE));
        }),
    );

    // Line-sized range ops in the miss-handler shape: clear the missing
    // line, re-arm the displaced line (distinct addresses, both
    // resident in cache after a few iterations).
    let mut hot = TrapMap::new(MEM_BYTES, LINE);
    push(
        "set_clear_range_line",
        n,
        time_case(batches, n, |i| {
            let pa = PhysAddr::new((i * LINE * 7) % MEM_BYTES);
            hot.set_range(pa, LINE);
            hot.clear_range(pa, LINE);
        }),
    );
    let pages = 4096;
    push(
        "set_clear_range_page",
        pages,
        time_case(batches, pages, |i| {
            let pa = PhysAddr::new((i * PAGE) % MEM_BYTES);
            hot.set_range(pa, PAGE);
            hot.clear_range(pa, PAGE);
        }),
    );

    // Full-bitmap recount: the chunked population sweep.
    let sweeps = 2048;
    push(
        "recount_sparse",
        sweeps,
        time_case(batches, sweeps, |_| {
            black_box(sparse.recount());
        }),
    );

    // Representative end-to-end per-miss cost: direct-mapped 4 KiB
    // cache, every reference a (cold or conflict) miss on a registered
    // page — the trapped-chunk case of the engine's trap-service walk.
    let cache = CacheConfig::new(4096, LINE, 1).expect("valid geometry");
    let mut tw = Tapeworm::new(cache, PAGE, SeedSeq::new(7)).with_cost(CostModel::optimized());
    let mut traps = TrapMap::new(MEM_BYTES, LINE);
    let misses = 200_000;
    let footprint = 256 * PAGE;
    for page in 0..(footprint / PAGE) {
        tw.tw_register_page(&mut traps, Tid::KERNEL, Pfn::new(page), page);
    }
    push(
        "handle_miss_dm4k",
        misses,
        time_case(batches, misses, |i| {
            // Stride by one line through the footprint: with a 4 KiB
            // direct-mapped cache and a footprint far beyond it, every
            // probe conflicts, so each call takes the full service path.
            let off = (i * LINE) % footprint;
            let (va, pa) = (VirtAddr::new(off), PhysAddr::new(off));
            black_box(tw.handle_miss(&mut traps, Component::User, Tid::KERNEL, va, pa));
        }),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"{MICROBENCH_SCHEMA}\",");
    let _ = writeln!(json, "  \"source\": \"microbench_trapset\",");
    let _ = writeln!(json, "  \"mem_bytes\": {MEM_BYTES},");
    let _ = writeln!(json, "  \"granule\": {LINE},");
    let _ = writeln!(json, "  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.3}, \"ops\": {}}}{}",
            c.name,
            c.ns_per_op,
            c.ops,
            if i + 1 == cases.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    write_atomic(Path::new("results/MICROBENCH.json"), json.as_bytes())
        .expect("results/MICROBENCH.json must be writable");
    println!("wrote results/MICROBENCH.json");
}
