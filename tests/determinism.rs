//! Determinism regression suite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Thread-count invariance** — `run_sweep` commits `(config, trial)`
//!    cells in index order, so its output is bit-identical for every
//!    worker count. If the committer or the seed discipline regresses,
//!    these tests catch it.
//! 2. **Seed-derivation stability** — every experiment in the repo is a
//!    pure function of `SeedSeq` derivation paths. The golden values
//!    below pin the exact derivation arithmetic (SplitMix64 chain); any
//!    change to it silently re-randomizes every table and figure, so it
//!    must be deliberate and visible in this file's diff.

use std::num::NonZeroU64;

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::obs::MetricsReport;
use tapeworm::sim::{
    run_sweep, run_sweep_resilient, CheckpointConfig, ComponentSet, FaultPlan, ObsConfig,
    SweepOptions, SystemConfig, TrialError, TrialResult, TrialRun, TrialRunner, TrialSummary,
    WindowSample,
};
use tapeworm::stats::trials::TrialScheduler;
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const SCALE: u64 = 20_000;

fn sweep_configs() -> Vec<SystemConfig> {
    [(Workload::Espresso, 1u64), (Workload::MpegPlay, 4)]
        .into_iter()
        .map(|(w, kb)| {
            let cache = CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
            SystemConfig::cache(w, cache)
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE)
                .with_sampling(8)
        })
        .collect()
}

fn flatten(cells: &[tapeworm::sim::TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// `run_sweep` with 1, 2 and 8 threads produces bit-identical
/// `TrialResult`s for the same seed.
#[test]
fn run_sweep_is_bit_identical_across_thread_counts() {
    let configs = sweep_configs();
    let reference = run_sweep(&configs, 4, SeedSeq::new(1994), 1);
    for threads in [2usize, 8] {
        let other = run_sweep(&configs, 4, SeedSeq::new(1994), threads);
        assert_eq!(
            flatten(&reference),
            flatten(&other),
            "sweep output diverged at threads={threads}"
        );
        // Summaries are derived from the same values in the same order,
        // so they must match exactly too (no float reassociation).
        for (a, b) in reference.iter().zip(&other) {
            assert_eq!(a.misses().mean(), b.misses().mean());
            assert_eq!(a.misses().stddev(), b.misses().stddev());
            assert_eq!(a.slowdowns().mean(), b.slowdowns().mean());
        }
    }
}

/// The lower-level trial runner obeys the same contract.
#[test]
fn run_trials_parallel_is_bit_identical_across_thread_counts() {
    let cfg = &sweep_configs()[0];
    let base = SeedSeq::new(7);
    let misses = |trial| one_trial(cfg, base, trial).result.total_misses();
    let serial = TrialScheduler::serial().run_trials(base, 6, misses);
    assert!(serial.is_ok(), "six trials");
    for threads in [2usize, 8] {
        let par = TrialScheduler::new(threads).run_trials(base, 6, misses);
        assert_eq!(par, serial, "threads={threads}");
    }
}

/// The committer releases results strictly in index order even when
/// completion order is scrambled.
#[test]
fn scheduler_commit_order_is_index_order() {
    let mut order = Vec::new();
    TrialScheduler::new(8).run_committed(
        32,
        |i| {
            // Make late indices finish first.
            std::thread::sleep(std::time::Duration::from_micros(((32 - i) * 100) as u64));
            i
        },
        |i, v| {
            assert_eq!(i, v);
            order.push(i);
        },
    );
    assert_eq!(order, (0..32).collect::<Vec<_>>());
}

/// Golden values for the `SeedSeq` derivation chain. These pin the
/// SplitMix64 arithmetic: a change here re-randomizes every experiment.
#[test]
fn seed_derivation_paths_are_stable() {
    let base = SeedSeq::new(1994);
    assert_eq!(base.value(), 0x6301_AAEC_4DCA_6C71);
    assert_eq!(base.derive("trial", 3).value(), 0xBF2B_3925_9056_F4A3);
    assert_eq!(
        base.derive("sweep-config", 2).derive("trial", 7).value(),
        0x35A7_EC21_BEB8_1BDE
    );
    let mut rng = base.rng();
    assert_eq!(rng.next_u64(), 0x7C9A_83A0_1C1E_711F);
    assert_eq!(rng.next_u64(), 0x0D77_64A5_0B7E_941B);
}

/// Derivation is label- and index-sensitive and order-sensitive, so
/// sibling experiment streams can never collide.
#[test]
fn derivation_separates_streams() {
    let base = SeedSeq::new(1994);
    assert_ne!(base.derive("trial", 0), base.derive("trial", 1));
    assert_ne!(base.derive("trial", 0), base.derive("frame-alloc", 0));
    assert_ne!(
        base.derive("a", 0).derive("b", 0),
        base.derive("b", 0).derive("a", 0)
    );
}

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

/// Golden equivalence matrix for the hot-path engine rewrite: every
/// simulator mode (physical-indexed cache, sampled cache, TLB
/// valid-bit, split I/D, two-level hierarchy, windowed monitoring) and
/// the task-exit/pageout paths produce `TrialResult`s bit-identical to
/// the pre-refactor nested-HashMap engine. The digests were generated
/// by `crates/bench/src/bin/golden_digest.rs` running against the
/// engine *before* the flat-page-table / translation-cache rewrite;
/// re-run that binary to regenerate after a deliberate
/// behaviour-changing commit.
#[test]
fn engine_matches_pre_refactor_golden_digests() {
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    let base = SeedSeq::new(1994);
    let trial = |label: &str| base.derive(label, 0).derive("trial", 0);

    let cases: Vec<(&str, SystemConfig, u64)> = vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
            0xfc75_7dd0_5926_cc83,
        ),
        (
            "cache-sampled",
            SystemConfig::cache(Workload::Espresso, dm(4))
                .with_components(ComponentSet::user_only())
                .with_sampling(8)
                .with_scale(SCALE),
            0xae44_79ab_ae9c_cdb4,
        ),
        (
            "tlb",
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE),
            0xcade_da6a_b685_b4bb,
        ),
        (
            "split",
            SystemConfig::split(Workload::JpegPlay, dm(4), dm(4)).with_scale(SCALE),
            0x98f2_97f4_2d6b_e0ee,
        ),
        (
            "two-level",
            SystemConfig::two_level(Workload::Espresso, dm(1), dm(8)).with_scale(SCALE),
            0x828b_5b7e_4a30_5527,
        ),
        (
            "exits",
            SystemConfig::cache(Workload::Ousterhout, dm(4)).with_scale(SCALE),
            0xe0b6_02ab_d63f_c8f8,
        ),
        (
            "split-exits",
            SystemConfig::split(Workload::Ousterhout, dm(4), dm(4)).with_scale(SCALE),
            0xca39_27e3_924c_8d50,
        ),
        (
            "tlb-exits",
            SystemConfig::tlb(Workload::Ousterhout, TlbSimConfig::r3000()).with_scale(SCALE),
            0x3fc3_0f9d_2956_02b9,
        ),
    ];
    for (label, cfg, expected) in &cases {
        let r = one_trial(cfg, base, trial(label)).result;
        assert_eq!(
            digest(&r, &[]),
            *expected,
            "TrialResult for {label} diverged from the pre-refactor engine"
        );
    }

    let cfg = SystemConfig::cache(Workload::MpegPlay, dm(4)).with_scale(SCALE);
    let run = TrialRunner::new()
        .window(NonZeroU64::new(10_000).expect("positive window"))
        .run(&cfg, base, trial("windowed"))
        .expect("feasible config");
    let (r, w) = (run.result, run.windows);
    assert_eq!(
        digest(&r, &w),
        0x2bc7_619a_1c24_e048,
        "windowed TrialResult diverged from the pre-refactor engine"
    );
}

/// Same seed, same sweep, run twice: bit-identical (no hidden global
/// state anywhere in the stack).
#[test]
fn repeated_sweeps_are_reproducible() {
    let configs = sweep_configs();
    let a = run_sweep(&configs, 2, SeedSeq::new(3), 2);
    let b = run_sweep(&configs, 2, SeedSeq::new(3), 2);
    assert_eq!(flatten(&a), flatten(&b));
}

/// Observability metrics ride the same deterministic committer as
/// `TrialResult`s: a sweep's per-config merged metrics (counters, phase
/// cycles, trap-event summary) are bit-identical at 1 and 8 worker
/// threads.
#[test]
fn sweep_metrics_are_bit_identical_across_thread_counts() {
    let configs = sweep_configs();
    let reference = run_sweep(&configs, 4, SeedSeq::new(1994), 1);
    for threads in [2usize, 8] {
        let other = run_sweep(&configs, 4, SeedSeq::new(1994), threads);
        for (a, b) in reference.iter().zip(&other) {
            assert_eq!(
                a.metrics(),
                b.metrics(),
                "sweep metrics diverged at threads={threads}"
            );
        }
    }
    // The counters actually observed something.
    assert!(reference[0].metrics().counters.total() > 0);
}

/// A trial observed through the event ring returns the same
/// `TrialResult` as a plain one for every simulator mode — observation
/// never perturbs the simulation — and its metrics are reproducible run
/// to run, with the ring on or off.
#[test]
fn observed_trials_match_plain_trials_and_reproduce() {
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    let base = SeedSeq::new(1994);
    let trial = base.derive("obs", 0).derive("trial", 0);
    let cases: Vec<(&str, SystemConfig)> = vec![
        (
            "cache",
            SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE),
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
    ];
    let mut ring = TrialRunner::new().observe(ObsConfig::with_ring(256));
    for (label, cfg) in &cases {
        let plain = one_trial(cfg, base, trial);
        let ringed = ring.run(cfg, base, trial).expect("feasible config");
        let (m1, m2) = (&plain.metrics, &ringed.metrics);
        assert_eq!(
            plain.result, ringed.result,
            "{label}: the event ring perturbed the trial"
        );
        // Counters and phases are identical whether or not events are
        // recorded; only the event payload differs.
        assert_eq!(m1.counters, m2.counters, "{label}");
        assert_eq!(m1.phases, m2.phases, "{label}");
        assert_eq!(m1.events_recorded, 0, "{label}: disabled ring recorded");
        // Metrics are reproducible run to run.
        let m3 = ring.run(cfg, base, trial).expect("feasible config").metrics;
        assert_eq!(*m2, m3, "{label}: metrics not reproducible");
        // The phase account books exactly the trial's cycles.
        assert_eq!(
            m1.phases.workload(),
            plain.result.workload_cycles,
            "{label}"
        );
        assert_eq!(
            m1.phases.overhead(),
            plain.result.overhead_cycles,
            "{label}"
        );
    }
}

/// One runner reused across every simulator mode, across failed
/// `OutOfFrames` trials and with the ring and window each on and off
/// returns exactly what a fresh runner returns: the scratch it salvages
/// after every trial, failed or not, never leaks into the next one.
#[test]
fn a_reused_runner_matches_fresh_runners() {
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    let base = SeedSeq::new(1994);
    let trial = base.derive("reuse", 0).derive("trial", 0);
    let modes = [
        SystemConfig::cache(Workload::Espresso, dm(4)),
        SystemConfig::cache(Workload::Espresso, dm(4)).with_sampling(8),
        SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()),
        SystemConfig::split(Workload::JpegPlay, dm(4), dm(4)),
        SystemConfig::two_level(Workload::Espresso, dm(1), dm(8)),
        SystemConfig::kernel_trace_buffer(Workload::MpegPlay, dm(4)),
    ]
    .map(|cfg| cfg.with_scale(SCALE));
    let starved = [8, 16].map(|frames| {
        let mut cfg = SystemConfig::cache(Workload::MpegPlay, dm(4)).with_scale(SCALE);
        cfg.frames = frames;
        cfg
    });
    let period = NonZeroU64::new(10_000).expect("positive window");
    for (ring, window) in [(0, None), (64, None), (0, Some(period)), (64, Some(period))] {
        let runner = || {
            let runner = TrialRunner::new().observe(ObsConfig::with_ring(ring));
            window.into_iter().fold(runner, TrialRunner::window)
        };
        let mut reused = runner();
        let mut events = 0;
        for cfg in &modes {
            for starved in &starved {
                let failed = reused.run(starved, base, trial);
                assert!(matches!(failed, Err(TrialError::OutOfFrames { .. })));
                assert_eq!(failed, runner().run(starved, base, trial));
            }
            let run = reused.run(cfg, base, trial).expect("feasible config");
            assert_eq!(run.windows.is_empty(), window.is_none());
            events += run.metrics.events.len();
            assert_eq!(
                run,
                runner().run(cfg, base, trial).expect("feasible config"),
                "{:?} ring={ring} window={window:?}",
                cfg.model
            );
        }
        assert_eq!(events > 0, ring > 0);
    }
}

/// Renders a sweep's cells the way the experiment binaries export them,
/// so "bit-identical" below covers the METRICS.json bytes too.
fn metrics_json(cells: &[TrialSummary], trials: u64) -> String {
    let mut report = MetricsReport::new("determinism", "test");
    for (i, cell) in cells.iter().enumerate() {
        report.push(&format!("config-{i}"), trials, cell.metrics().clone());
    }
    report.to_json()
}

/// The ISSUE acceptance bar: a sweep with injected panics on 2 of its
/// trials (plus one simulated hang) completes with the retries
/// succeeding, and its merged results *and* exported metrics are
/// bit-identical to the fault-free run for `TW_THREADS` ∈ {1, 4, 8}.
#[test]
fn faulted_sweep_is_bit_identical_to_fault_free() {
    let configs = sweep_configs();
    let base = SeedSeq::new(1994);
    let clean = run_sweep_resilient(&configs, 4, base, &SweepOptions::default());
    assert!(clean.fault_stats().is_clean());
    let faults = FaultPlan::new()
        .with_panic(1, 0)
        .with_panic(6, 0)
        .with_budget_exhaustion(3, 0);
    for threads in [1usize, 4, 8] {
        let faulted = run_sweep_resilient(
            &configs,
            4,
            base,
            &SweepOptions::default()
                .with_threads(threads)
                .with_faults(faults.clone()),
        );
        assert!(
            faulted.failed().is_empty(),
            "threads={threads}: retries must succeed"
        );
        assert_eq!(faulted.fault_stats().panics, 2, "threads={threads}");
        assert_eq!(faulted.fault_stats().typed_failures, 1);
        assert_eq!(faulted.fault_stats().retries, 3);
        assert_eq!(faulted.fault_stats().workers_respawned, 2);
        assert_eq!(
            flatten(clean.cells()),
            flatten(faulted.cells()),
            "threads={threads}: results diverged under faults"
        );
        assert_eq!(
            metrics_json(clean.cells(), 4),
            metrics_json(faulted.cells(), 4),
            "threads={threads}: exported metrics diverged under faults"
        );
    }
}

/// A sweep "killed" mid-run (deterministically, via `stop_after`) and
/// restarted with resume replays the committed prefix and produces
/// results and metrics bit-identical to an uninterrupted run, for
/// `TW_THREADS` ∈ {1, 4, 8}.
#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let configs = sweep_configs();
    let base = SeedSeq::new(1994);
    let clean = run_sweep_resilient(&configs, 4, base, &SweepOptions::default());
    for threads in [1usize, 4, 8] {
        let dir = std::env::temp_dir().join(format!("tapeworm-determinism-resume-{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("CHECKPOINT.json");
        let first = run_sweep_resilient(
            &configs,
            4,
            base,
            &SweepOptions::default()
                .with_threads(threads)
                .with_checkpoint(
                    CheckpointConfig::new(&path)
                        .with_interval(2)
                        .with_stop_after(5),
                ),
        );
        assert_eq!(first.stopped_after(), Some(5), "threads={threads}");
        assert!(path.exists(), "threads={threads}: prefix persisted");
        let second = run_sweep_resilient(
            &configs,
            4,
            base,
            &SweepOptions::default()
                .with_threads(threads)
                .with_checkpoint(CheckpointConfig::new(&path).resuming()),
        );
        assert_eq!(second.resumed_trials(), 5, "threads={threads}");
        assert!(!second.checkpoint_mismatch());
        assert_eq!(
            flatten(clean.cells()),
            flatten(second.cells()),
            "threads={threads}: resumed results diverged"
        );
        assert_eq!(
            metrics_json(clean.cells(), 4),
            metrics_json(second.cells(), 4),
            "threads={threads}: resumed metrics diverged"
        );
        assert!(!path.exists(), "threads={threads}: checkpoint cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The chaos gate's golden digest. `chaos_sweep` computes the same
/// digest over the same fixed scenario (sweep_configs × 4 trials, seed
/// 1994) and `ci.sh` greps its output for this exact value, so the
/// fault-free baseline, the faulted run and the resumed run are all
/// pinned to one number. Regenerate by running
/// `cargo run --release --bin chaos_sweep` after a deliberate
/// behaviour-changing commit.
const CHAOS_GOLDEN_DIGEST: u64 = 0x76fe_e05a_c899_b1d3;

fn chaos_digest(cells: &[TrialSummary]) -> u64 {
    let results: Vec<&TrialResult> = cells.iter().flat_map(|c| c.results()).collect();
    let metrics: Vec<_> = cells.iter().map(|c| c.metrics()).collect();
    fnv1a(format!("{results:?}|{metrics:?}").as_bytes())
}

#[test]
fn chaos_scenario_digest_matches_golden() {
    let outcome = run_sweep_resilient(
        &sweep_configs(),
        4,
        SeedSeq::new(1994),
        &SweepOptions::default(),
    );
    assert_eq!(
        chaos_digest(outcome.cells()),
        CHAOS_GOLDEN_DIGEST,
        "chaos scenario digest moved; regenerate with chaos_sweep and update ci.sh"
    );
}
