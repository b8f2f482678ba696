//! Prints FNV-1a digests of `TrialResult`s for the golden equivalence
//! matrix in `tests/determinism.rs`
//! (`engine_matches_pre_refactor_golden_digests`), plus the sweep
//! service's `specs/ci_smoke.toml` digest pinned in
//! `tests/server_e2e.rs`, `crates/server/tests/server_e2e.rs` and
//! ci.sh (`SERVICE_GOLDEN_DIGEST`).
//!
//! Run after a *deliberate* behaviour-changing commit to regenerate
//! the pinned digests; the output lines paste directly into the tests.

use std::num::NonZeroU64;

use tapeworm_core::{CacheConfig, TlbSimConfig};
use tapeworm_server::{
    digest_outcomes, BackendOptions, InProcessBackend, SweepPlan, WorkerBackend,
};
use tapeworm_sim::{ComponentSet, SystemConfig, TrialResult, TrialRunner, WindowSample};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

const SCALE: u64 = 20_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn digest(result: &TrialResult, windows: &[WindowSample]) -> u64 {
    fnv1a(format!("{result:?}|{windows:?}").as_bytes())
}

fn main() {
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).unwrap();
    let base = SeedSeq::new(1994);
    let trial = |label: &str| base.derive(label, 0).derive("trial", 0);

    let cases: Vec<(&str, SystemConfig)> = vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
        ),
        (
            "cache-sampled",
            SystemConfig::cache(Workload::Espresso, dm(4))
                .with_components(ComponentSet::user_only())
                .with_sampling(8)
                .with_scale(SCALE),
        ),
        (
            "tlb",
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE),
        ),
        (
            "split",
            SystemConfig::split(Workload::JpegPlay, dm(4), dm(4)).with_scale(SCALE),
        ),
        (
            "two-level",
            SystemConfig::two_level(Workload::Espresso, dm(1), dm(8)).with_scale(SCALE),
        ),
        (
            "exits",
            SystemConfig::cache(Workload::Ousterhout, dm(4)).with_scale(SCALE),
        ),
        (
            "split-exits",
            SystemConfig::split(Workload::Ousterhout, dm(4), dm(4)).with_scale(SCALE),
        ),
        (
            "tlb-exits",
            SystemConfig::tlb(Workload::Ousterhout, TlbSimConfig::r3000()).with_scale(SCALE),
        ),
    ];
    for (label, cfg) in &cases {
        let r = TrialRunner::new()
            .run(cfg, base, trial(label))
            .expect("feasible config")
            .result;
        println!("(\"{label}\", {:#018x}),", digest(&r, &[]));
    }
    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4)).with_scale(SCALE);
    let run = TrialRunner::new()
        .window(NonZeroU64::new(10_000).expect("positive window"))
        .run(&cfg, base, trial("windowed"))
        .expect("feasible config");
    println!(
        "(\"windowed\", {:#018x}),",
        digest(&run.result, &run.windows)
    );

    // The sweep service's golden digest: specs/ci_smoke.toml through
    // the in-process backend (every backend is pinned to match it).
    match std::fs::read_to_string("specs/ci_smoke.toml") {
        Ok(spec) => {
            let plan = SweepPlan::resolve(&spec).expect("valid ci_smoke spec");
            let run = InProcessBackend
                .run(&plan, &BackendOptions::default())
                .expect("in-process backend");
            println!(
                "SERVICE_GOLDEN_DIGEST (ci-smoke): {:#018x}",
                digest_outcomes(&run.outcomes)
            );
        }
        Err(e) => eprintln!("golden_digest: skipping service digest ({e}); run from the repo root"),
    }
}
