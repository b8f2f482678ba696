//! Differential suite for inline miss servicing on trap-dense
//! stretches, over the cache geometries the mode matrix of
//! `tests/fast_path.rs` leaves out.
//!
//! Inside a partly trapped frame the engine's trap-service walk probes
//! each trapped chunk, services its miss inline through the plain
//! handler and defers the retire/phase/clock bookkeeping to one flush
//! per page segment (or to the chunk whose cycles reach the next tick).
//! Replacement state is what that deferral could disturb: the victim a
//! miss evicts re-arms a trap the walk may reach later in the same
//! segment. This suite pins the walk bit-identical to the stepwise
//! reference loop (`SystemConfig::with_fast_path(false)`) on
//! set-associative FIFO and random caches, virtual indexing, wider
//! lines and associative split/two-level hierarchies — results,
//! counters, phases and ring-event virtual timestamps — and pins where
//! the walk engages.

use tapeworm::core::{CacheConfig, Indexing, Replacement, TlbSimConfig};
use tapeworm::obs::CounterId;
use tapeworm::sim::{
    run_sweep, ComponentSet, ObsConfig, SystemConfig, TrialResult, TrialRun, TrialRunner,
};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const SCALE: u64 = 20_000;

fn cache(kb: u64, line: u64, ways: u32) -> CacheConfig {
    CacheConfig::new(kb * 1024, line, ways).expect("valid geometry")
}

/// Associative, randomly replaced, virtually indexed and wide-line
/// geometries in the cache, split and two-level modes.
fn geometries() -> Vec<(&'static str, SystemConfig)> {
    vec![
        (
            "2-way-fifo",
            SystemConfig::cache(Workload::MpegPlay, cache(8, 16, 2))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
        ),
        (
            "4-way-random",
            SystemConfig::cache(
                Workload::Espresso,
                cache(16, 16, 4).with_replacement(Replacement::Random),
            )
            .with_scale(SCALE),
        ),
        (
            "virtual-dm",
            SystemConfig::cache(
                Workload::Xlisp,
                cache(4, 16, 1).with_indexing(Indexing::Virtual),
            )
            .with_scale(SCALE),
        ),
        (
            "32b-line-dm",
            SystemConfig::cache(Workload::MpegPlay, cache(2, 32, 1))
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE),
        ),
        (
            "split-assoc",
            SystemConfig::split(Workload::JpegPlay, cache(4, 32, 2), cache(8, 32, 1))
                .with_scale(SCALE),
        ),
        (
            "two-level-assoc",
            SystemConfig::two_level(
                Workload::Ousterhout,
                cache(1, 32, 2),
                cache(16, 32, 4).with_replacement(Replacement::Random),
            )
            .with_scale(SCALE),
        ),
    ]
}

fn flatten(cells: &[tapeworm::sim::TrialSummary]) -> Vec<&TrialResult> {
    cells.iter().flat_map(|c| c.results()).collect()
}

/// The walk's own tallies: zero on the stepwise loop by definition.
fn walk_bookkeeping(id: CounterId) -> bool {
    matches!(
        id,
        CounterId::FastRuns | CounterId::FastWords | CounterId::MissBatchFlushes
    )
}

/// For every geometry, a sweep through the walk commits `TrialResult`s
/// bit-identical to the stepwise loop at 1, 4 and 8 worker threads,
/// with matching merged counters (outside the walk's tallies) and
/// phase account.
#[test]
fn miss_batch_is_bit_identical_to_stepwise() {
    for (label, cfg) in geometries() {
        let stepwise = run_sweep(
            &[cfg.clone().with_fast_path(false)],
            4,
            SeedSeq::new(1994),
            1,
        );
        for threads in [1usize, 4, 8] {
            let walk = run_sweep(&[cfg.clone()], 4, SeedSeq::new(1994), threads);
            assert_eq!(
                flatten(&stepwise),
                flatten(&walk),
                "{label}: walk diverged from the stepwise loop at threads={threads}"
            );
            let (sm, wm) = (stepwise[0].metrics(), walk[0].metrics());
            for (id, sv) in sm.counters.iter() {
                if walk_bookkeeping(id) {
                    continue;
                }
                assert_eq!(
                    sv,
                    wm.counters.get(id),
                    "{label}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, wm.phases, "{label}: phase cycles diverged");
        }
    }
}

/// Misses serviced inside the walk record ring events with *virtual*
/// timestamps (the cycle the stepwise loop would have reached). The
/// event streams must match the stepwise run exactly — kind, cycle,
/// thread, page and victim — and stay in time order, with and without
/// dilation.
#[test]
fn miss_batch_preserves_ring_event_timestamps() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);
    for (label, cfg) in geometries() {
        for dilate in [true, false] {
            let mut walk = cfg.clone();
            walk.dilate = dilate;
            let stepwise = walk.clone().with_fast_path(false);
            let obs = ObsConfig::with_ring(1 << 18);
            let mut runner = TrialRunner::new().observe(obs);
            let run = runner.run(&walk, base, trial).expect("feasible config");
            let (wr, wm) = (run.result, run.metrics);
            let run = runner.run(&stepwise, base, trial).expect("feasible config");
            let (sr, sm) = (run.result, run.metrics);
            let what = format!("{label} dilate={dilate}");
            assert_eq!(wr, sr, "{what}: observed results diverged");
            assert_eq!(sm.events_dropped, 0, "{what}: ring too small");
            assert_eq!(
                wm.events_recorded, sm.events_recorded,
                "{what}: event counts diverged"
            );
            assert!(!wm.events.is_empty(), "{what}: no events recorded");
            assert_eq!(wm.events, sm.events, "{what}: ring events diverged");
            assert!(
                wm.events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "{what}: virtual timestamps out of order"
            );
        }
    }
}

/// The walk engages where it is supposed to: on every cache geometry
/// it services misses inline, many misses sharing one flush; the
/// stepwise loop never flushes a walk, and neither do the modes that
/// keep the stepwise loop (TLB and the kernel trace buffer).
#[test]
fn miss_batch_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("batch", 0).derive("trial", 0);
    for (label, cfg) in geometries() {
        let m = one_trial(&cfg, base, trial).metrics;
        let flushes = m.counters.get(CounterId::MissBatchFlushes);
        let misses = m.counters.get(CounterId::TrapEntries);
        assert!(misses > 0, "{label}: no misses");
        assert!(flushes > 0, "{label}: the walk never flushed");
        assert!(
            misses > flushes,
            "{label}: expected misses to share walk flushes ({misses} misses, {flushes} flushes)"
        );

        let off = cfg.with_fast_path(false);
        let m = one_trial(&off, base, trial).metrics;
        assert_eq!(
            m.counters.get(CounterId::MissBatchFlushes),
            0,
            "{label}: stepwise"
        );
    }

    let dm = cache(4, 16, 1);
    for (label, cfg) in [
        (
            "tlb",
            SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE),
        ),
        (
            "buffer",
            SystemConfig::kernel_trace_buffer(Workload::MpegPlay, dm).with_scale(SCALE),
        ),
    ] {
        let m = one_trial(&cfg, base, trial).metrics;
        assert_eq!(
            m.counters.get(CounterId::MissBatchFlushes),
            0,
            "{label}: keeps the stepwise loop"
        );
    }
}
