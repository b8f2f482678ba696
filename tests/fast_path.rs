//! Differential suite for the trap-service walk.
//!
//! The engine's hot loop walks each page segment chunk by chunk:
//! trap-free stretches retire in one batch, trapped chunks are serviced
//! inline by the plain miss handler, and the retire/phase/clock
//! bookkeeping is flushed once per segment — or right after the chunk
//! whose cycles reach the next clock tick. That optimisation is only
//! legal because it is *bit-identical* to the stepwise reference loop
//! (`SystemConfig::with_fast_path(false)`): same `TrialResult`, same
//! interrupt delivery positions, same ring events with the same virtual
//! timestamps, same phase account and same counters (minus the walk's
//! own tallies). This suite pins that equivalence for every simulator
//! mode, for serial and parallel sweeps, with and without time
//! dilation, with ticks landing inside miss runs and with masked traps
//! inside the walk; and it exercises the `TW_FAST=0` kill switch.

use std::sync::Mutex;

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::obs::{CounterId, TrialMetrics};
use tapeworm::sim::{
    run_sweep_resilient, ComponentSet, ObsConfig, SweepOptions, SystemConfig, TrialResult,
    TrialRun, TrialRunner,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const SCALE: u64 = 20_000;

/// Serializes the tests that read or write `TW_FAST`: the env var is
/// process-global, and the engagement assertions below would misfire if
/// another test flipped it mid-run. (The *results* are env-independent
/// by construction — that is the point of this file — so the
/// equivalence tests need no lock.)
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn dm(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry")
}

/// One configuration per simulator mode, same shapes as the golden
/// determinism matrix, plus the miss-rich user-only cache config the
/// benchmark's `user-4k` workload is built on.
fn modes() -> Vec<(&'static str, SystemConfig)> {
    vec![
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
            "cache-user-only",
            SystemConfig::cache(Workload::MpegPlay, dm(4))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
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
            "tlb",
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE),
        ),
        (
            "buffer",
            SystemConfig::kernel_trace_buffer(Workload::MpegPlay, dm(4)).with_scale(SCALE),
        ),
    ]
}

fn flatten(cells: &[tapeworm::sim::TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// The walk's own tallies: zero on the stepwise loop by definition.
/// Every other counter must match, including the rest of the
/// digest-frozen prefix. `FastRuns`/`FastWords` are pinned instead by
/// the golden digests and by the engine's hand-built-run unit tests.
fn walk_bookkeeping(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::FastRuns | CounterId::FastWords | CounterId::MissBatchFlushes
    )
}

/// Asserts two trials' metrics agree on everything the simulation
/// itself observes: every counter outside the walk's bookkeeping, the
/// phase account, and the ring (event count, drops and each retained
/// event's kind, virtual cycle, thread, page and victim).
fn assert_metrics_match(what: &str, walk: &TrialMetrics, stepwise: &TrialMetrics) {
    for (id, sv) in stepwise.counters.iter() {
        if walk_bookkeeping(id) {
            continue;
        }
        assert_eq!(sv, walk.counters.get(id), "{what}: counter {id} diverged");
    }
    assert_eq!(
        stepwise.phases, walk.phases,
        "{what}: phase cycles diverged"
    );
    assert_eq!(
        (stepwise.events_recorded, stepwise.events_dropped),
        (walk.events_recorded, walk.events_dropped),
        "{what}: event counts diverged"
    );
    assert_eq!(stepwise.events, walk.events, "{what}: ring events diverged");
}

/// The acceptance bar: for every simulator mode, a sweep through the
/// walk commits `TrialResult`s bit-identical to the stepwise loop, at
/// 1, 4 and 8 worker threads, with matching merged counters, phase
/// account and ring events.
#[test]
fn fast_path_is_bit_identical_to_slow_path() {
    let sweep = |cfg: SystemConfig, threads: usize| {
        let opts = SweepOptions::default()
            .with_threads(threads)
            .with_obs(ObsConfig::with_ring(1 << 16));
        run_sweep_resilient(&[cfg], 4, SeedSeq::new(1994), &opts)
    };
    for (label, cfg) in modes() {
        let slow = sweep(cfg.clone().with_fast_path(false), 1);
        assert_eq!(slow.cells()[0].metrics().events_dropped, 0, "{label}");
        for threads in [1usize, 4, 8] {
            let fast = sweep(cfg.clone(), threads);
            assert_eq!(
                flatten(slow.cells()),
                flatten(fast.cells()),
                "{label}: walk diverged from the stepwise loop at threads={threads}"
            );
            assert_metrics_match(
                &format!("{label} threads={threads}"),
                fast.cells()[0].metrics(),
                slow.cells()[0].metrics(),
            );
        }
    }
}

/// The walk defers its clock advance to the chunk that reaches the
/// next tick, and stamps ring events with the stepwise clock. Pin both
/// where they are hardest: clock periods short enough (2000 and 3000
/// cycles) that ticks land inside miss runs, dilation on and off (the
/// handler overhead then does or does not move the clock), and masked
/// interrupt-handler prefixes of 400 and 512 words, so masked traps
/// occur inside the walk — in every simulator mode.
#[test]
fn walk_preserves_ring_events_ticks_and_masking() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("walk", 0).derive("trial", 0);
    for (label, cfg) in modes() {
        for dilate in [true, false] {
            for (clock_period, masked_prefix_words) in [
                (100_000, 16),
                (2000, 400),
                (2000, 512),
                (3000, 400),
                (3000, 512),
            ] {
                let mut walk = cfg.clone();
                walk.dilate = dilate;
                walk.clock_period = clock_period;
                walk.masked_prefix_words = masked_prefix_words;
                let stepwise = walk.clone().with_fast_path(false);
                let obs = ObsConfig::with_ring(1 << 18);
                let mut runner = TrialRunner::new().observe(obs);
                let run = runner.run(&walk, base, trial).expect("feasible config");
                let (wr, wm) = (run.result, run.metrics);
                let run = runner.run(&stepwise, base, trial).expect("feasible config");
                let (sr, sm) = (run.result, run.metrics);
                let what = format!(
                    "{label} dilate={dilate} clock={clock_period} masked={masked_prefix_words}"
                );
                assert_eq!(wr, sr, "{what}: results diverged");
                if clock_period < 100_000 {
                    assert!(sr.clock_interrupts > 10, "{what}: too few ticks fired");
                    // Where the kernel is simulated, the long masked
                    // prefixes lose traps inside the walk.
                    if matches!(label, "cache" | "split") {
                        assert!(sr.masked_misses > 0, "{what}: no masked trap");
                    }
                }
                assert_eq!(sm.events_dropped, 0, "{what}: ring too small");
                assert_metrics_match(&what, &wm, &sm);
            }
        }
    }
}

/// The walk engages where it is supposed to — cache-style configs
/// retire most instructions in clean batches — and never engages on
/// the excluded modes or when disabled.
#[test]
fn fast_path_engages_exactly_where_expected() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    std::env::remove_var("TW_FAST");
    let base = SeedSeq::new(1994);
    let trial = base.derive("fast", 0).derive("trial", 0);

    for (label, cfg) in modes() {
        let run = one_trial(&cfg, base, trial);
        let (r, m) = (run.result, run.metrics);
        let runs = m.counters.get(CounterId::FastRuns);
        let words = m.counters.get(CounterId::FastWords);
        match label {
            // TLB mode has no per-chunk access dispatch and the kernel
            // trace buffer pays per reference; neither may batch.
            "tlb" | "buffer" => {
                assert_eq!(runs, 0, "{label}: fast path must stay off");
                assert_eq!(words, 0, "{label}");
            }
            _ => {
                assert!(runs > 0, "{label}: fast path never engaged");
                assert!(words >= runs, "{label}: runs retire at least one word");
                assert!(
                    words * 2 > r.instructions,
                    "{label}: expected the majority of {} instructions on the \
                     fast path, got {words}",
                    r.instructions
                );
            }
        }
        // The config kill switch forces every word onto the slow path.
        let off = cfg.with_fast_path(false);
        let m = one_trial(&off, base, trial).metrics;
        assert_eq!(m.counters.get(CounterId::FastRuns), 0, "{label}: disabled");
        assert_eq!(m.counters.get(CounterId::FastWords), 0, "{label}: disabled");
    }
}

/// `TW_FAST=0` is the no-recompile kill switch: it forces the slow path
/// (observable in the counters) without perturbing any result.
#[test]
fn tw_fast_env_knob_forces_the_slow_path() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let base = SeedSeq::new(1994);
    let trial = base.derive("fast", 0).derive("trial", 0);
    let cfg = SystemConfig::cache(Workload::Espresso, dm(4)).with_scale(SCALE);

    std::env::remove_var("TW_FAST");
    let run = one_trial(&cfg, base, trial);
    let (on_result, on_metrics) = (run.result, run.metrics);
    assert!(on_metrics.counters.get(CounterId::FastRuns) > 0);

    std::env::set_var("TW_FAST", "0");
    let run = one_trial(&cfg, base, trial);
    let (off_result, off_metrics) = (run.result, run.metrics);
    std::env::remove_var("TW_FAST");

    assert_eq!(off_metrics.counters.get(CounterId::FastRuns), 0);
    assert_eq!(off_metrics.counters.get(CounterId::FastWords), 0);
    assert_eq!(on_result, off_result, "TW_FAST=0 perturbed the result");
    // Any value other than "0" leaves the fast path on.
    std::env::set_var("TW_FAST", "1");
    let again = one_trial(&cfg, base, trial).metrics;
    std::env::remove_var("TW_FAST");
    assert!(again.counters.get(CounterId::FastRuns) > 0);
}
