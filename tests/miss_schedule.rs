//! Differential suite for the schedule-eligible cache geometries.
//!
//! Physically indexed FIFO caches whose sets × line cover a page are
//! the geometries `tapeworm_core::Tapeworm::service_burst` can serve
//! from per-set residency tables and recorded miss schedules. The trial
//! engine no longer calls that layer: its trap-service walk runs the
//! plain handler inline on every geometry. This suite pins that on the
//! geometries where recurring trap bursts are densest the walk is
//! bit-identical to the stepwise reference loop
//! (`SystemConfig::with_fast_path(false)`) for every workload — results,
//! counters, phases and ring-event virtual timestamps, in multi-config
//! sweeps at 1, 4 and 8 threads — and that the retired layers'
//! counters read 0.

use tapeworm::core::{CacheConfig, TlbSimConfig};
use tapeworm::obs::CounterId;
use tapeworm::sim::{run_sweep, ComponentSet, ObsConfig, SystemConfig, TrialResult, TrialRunner};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

/// Physically indexed FIFO geometries with sets × line ≥ 4 KiB page.
fn eligible() -> Vec<CacheConfig> {
    [(4, 1), (8, 2), (16, 4), (64, 1)]
        .into_iter()
        .map(|(kb, ways)| CacheConfig::new(kb * 1024, 16, ways).expect("valid geometry"))
        .collect()
}

/// Every workload on one eligible geometry each (cycling through
/// them), user-only as in the benchmark's miss-rich workloads, plus a
/// whole-system cache and an eligible split pair.
fn configs() -> Vec<SystemConfig> {
    let geoms = eligible();
    let mut cfgs: Vec<SystemConfig> = Workload::ALL
        .into_iter()
        .zip(geoms.iter().cycle())
        .map(|(w, g)| {
            SystemConfig::cache(w, g.clone())
                .with_components(ComponentSet::user_only())
                .with_scale(SCALE)
        })
        .collect();
    cfgs.push(SystemConfig::cache(Workload::Sdet, geoms[1].clone()).with_scale(SCALE));
    cfgs.push(
        SystemConfig::split(Workload::MpegPlay, geoms[0].clone(), geoms[2].clone())
            .with_scale(SCALE),
    );
    cfgs
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

/// One multi-config sweep through the walk commits `TrialResult`s
/// bit-identical to the stepwise loop at 1, 4 and 8 worker threads,
/// with matching per-cell counters (outside the walk's tallies) and
/// phase accounts.
#[test]
fn miss_schedule_is_bit_identical_to_stepwise() {
    let cfgs = configs();
    let stepwise_cfgs: Vec<SystemConfig> = cfgs
        .iter()
        .map(|c| c.clone().with_fast_path(false))
        .collect();
    let stepwise = run_sweep(&stepwise_cfgs, 3, SeedSeq::new(1994), 1);
    for threads in [1usize, 4, 8] {
        let walk = run_sweep(&cfgs, 3, SeedSeq::new(1994), threads);
        assert_eq!(
            flatten(&stepwise),
            flatten(&walk),
            "walk diverged from the stepwise loop at threads={threads}"
        );
        for (cell, (s, w)) in stepwise.iter().zip(&walk).enumerate() {
            let (sm, wm) = (s.metrics(), w.metrics());
            for (id, sv) in sm.counters.iter() {
                if walk_bookkeeping(id) {
                    continue;
                }
                assert_eq!(
                    sv,
                    wm.counters.get(id),
                    "cell {cell}: counter {id} diverged at threads={threads}"
                );
            }
            assert_eq!(sm.phases, wm.phases, "cell {cell}: phase cycles diverged");
        }
    }
}

/// Recurring bursts re-entered around clock ticks are where replayed
/// schedules had to recompute virtual timestamps; the walk stamps
/// events from its pending lag instead. With a 2500-cycle clock (ticks
/// inside miss runs) the event streams must match the stepwise run
/// exactly — kind, cycle, thread, page and victim — for every config.
#[test]
fn miss_schedule_preserves_ring_event_timestamps() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);
    for (i, cfg) in configs().into_iter().enumerate() {
        let mut walk = cfg;
        walk.clock_period = 2500;
        let stepwise = walk.clone().with_fast_path(false);
        let obs = ObsConfig::with_ring(1 << 18);
        let mut runner = TrialRunner::new().observe(obs);
        let run = runner.run(&walk, base, trial).expect("feasible config");
        let (wr, wm) = (run.result, run.metrics);
        let run = runner.run(&stepwise, base, trial).expect("feasible config");
        let (sr, sm) = (run.result, run.metrics);
        let what = format!("config {i} ({:?})", walk.workload);
        assert_eq!(wr, sr, "{what}: observed results diverged");
        assert!(sr.clock_interrupts > 10, "{what}: too few ticks fired");
        assert_eq!(sm.events_dropped, 0, "{what}: ring too small");
        assert_eq!(
            wm.events_recorded, sm.events_recorded,
            "{what}: event counts diverged"
        );
        assert_eq!(wm.events, sm.events, "{what}: ring events diverged");
    }
}

/// The engine never engages the retired burst layers: the miss-schedule
/// counters and the victim memo read 0 on every eligible geometry and
/// in the TLB and trace-buffer modes, whichever loop runs.
#[test]
fn miss_schedule_engages_exactly_where_expected() {
    let base = SeedSeq::new(1994);
    let trial = base.derive("sched", 0).derive("trial", 0);
    let retired = [
        CounterId::SchedReplays,
        CounterId::SchedRecords,
        CounterId::SchedSigMisses,
        CounterId::VictimMemoHits,
    ];
    let mut cfgs = configs();
    cfgs.push(SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE));
    cfgs.push(
        SystemConfig::kernel_trace_buffer(Workload::MpegPlay, eligible()[0].clone())
            .with_scale(SCALE),
    );
    for (i, cfg) in cfgs.into_iter().enumerate() {
        for fast in [true, false] {
            let run = cfg.clone().with_fast_path(fast);
            let m = TrialRunner::new()
                .run(&run, base, trial)
                .expect("feasible config")
                .metrics;
            for id in retired {
                assert_eq!(
                    m.counters.get(id),
                    0,
                    "config {i} fast={fast}: {id} must read 0"
                );
            }
        }
    }
}
