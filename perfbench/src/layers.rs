//! Standalone layer probes for the traced run.
//!
//! Each probe calls one public hot-path function in isolation, shaped
//! from the workload's `WorkloadSpec` and `CacheConfig`, so the split of
//! a trial's host time comes from counts plus measured per-call costs
//! rather than from subtraction. They run only in the traced run,
//! after the timed part, and never touch end-to-end numbers.

use std::hint::black_box;
use std::time::Instant;

use tapeworm_core::{BurstRequest, CacheConfig, MissSchedule, Tapeworm};
use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WORD_BYTES};
use tapeworm_os::Tid;
use tapeworm_sim::{run_sweep_cell, ObsConfig, SystemConfig};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::{ProcStream, RefStream, Workload};

use crate::report::median;
use crate::trace::Tracer;

const PAGE: u64 = 4096;
/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 9;

/// Runs `op` in `BATCHES` timed batches under one span each and
/// returns the median batch's nanoseconds per unit of work, where
/// `op` returns the units it performed.
fn batches(
    tr: &mut Tracer,
    parent: Option<usize>,
    name: &'static str,
    mut op: impl FnMut() -> u64,
) -> f64 {
    let per_unit: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let span = tr.open(name, parent);
            let t = Instant::now();
            let units = op();
            let ns = t.elapsed().as_nanos() as f64;
            tr.close(span);
            ns / units.max(1) as f64
        })
        .collect();
    median(&per_unit)
}

/// Mean of per-item probe results (0 for no items).
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `ProcStream` run generation for one trial's instruction budget of
/// every component with a non-zero share, in ns per generated word.
/// `DataStream` is not driven: it feeds split-cache models only, and
/// no benchmark workload simulates one.
pub fn gen_ns_per_ref(
    tr: &mut Tracer,
    parent: Option<usize>,
    workloads: &[Workload],
    scale: u64,
    seed: SeedSeq,
) -> f64 {
    let per_workload: Vec<f64> = workloads
        .iter()
        .map(|&w| {
            let spec = w.spec();
            let total = spec.scaled_instructions(scale);
            batches(tr, parent, "workload.gen", || {
                let mut words = 0u64;
                for (c, weight) in spec.component_weights() {
                    let budget = total * u64::from(weight) / 1000;
                    let mut stream = ProcStream::new(
                        0x40_0000,
                        *spec.stream_for(c),
                        seed.derive("bench-gen", c.index() as u64),
                    );
                    let mut done = 0u64;
                    while done < budget {
                        let run = black_box(stream.next_run());
                        done += u64::from(run.words);
                    }
                    words += done;
                }
                words
            })
        })
        .collect();
    mean(&per_workload)
}

/// A simulator over `cfg` with two registered pages that map onto the
/// same cache sets, so striding through both misses on every line.
fn conflicting_pair(cfg: CacheConfig) -> (Tapeworm, TrapMap, u64) {
    let other = (cfg.size_bytes() / PAGE).max(1);
    let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(7));
    let mut traps = TrapMap::new((other + 1) * PAGE, cfg.line_bytes());
    for pfn in [0, other] {
        tw.tw_register_page(&mut traps, Tid::KERNEL, Pfn::new(pfn), pfn);
    }
    (tw, traps, other)
}

/// Stepwise `Tapeworm::handle_miss` on a conflict ladder over each
/// geometry, in ns per call.
pub fn handle_miss_ns(tr: &mut Tracer, parent: Option<usize>, geoms: &[CacheConfig]) -> f64 {
    const CALLS: u64 = 100_000;
    let per_geom: Vec<f64> = geoms
        .iter()
        .map(|&cfg| {
            let (mut tw, mut traps, other) = conflicting_pair(cfg);
            let line = cfg.line_bytes();
            let lines = PAGE / line;
            let mut i = 0u64;
            batches(tr, parent, "core.handle_miss", || {
                for _ in 0..CALLS {
                    let g = i % (2 * lines);
                    let page = if g < lines { 0 } else { other };
                    let pa = page * PAGE + (g % lines) * line;
                    black_box(tw.handle_miss(
                        &mut traps,
                        Component::User,
                        Tid::KERNEL,
                        VirtAddr::new(pa),
                        PhysAddr::new(pa),
                    ));
                    i += 1;
                }
                CALLS
            })
        })
        .collect();
    mean(&per_geom)
}

/// Whole-page `Tapeworm::service_burst` calls alternating two
/// conflicting pages (schedule store kept, so bursts reach replay
/// steady state), in ns per serviced miss. Geometries the scheduled
/// burst path does not admit are skipped.
pub fn burst_ns_per_miss(tr: &mut Tracer, parent: Option<usize>, geoms: &[CacheConfig]) -> f64 {
    const BURSTS: u64 = 1_000;
    let per_geom: Vec<f64> = geoms
        .iter()
        .filter_map(|&cfg| {
            let (mut tw, mut traps, other) = conflicting_pair(cfg);
            if !tw.sched_eligible() {
                return None;
            }
            let mut sched = MissSchedule::new();
            let mut i = 0u64;
            Some(batches(tr, parent, "core.service_burst", || {
                let mut misses = 0;
                for _ in 0..BURSTS {
                    let page = [0, other][(i % 2) as usize];
                    let req = BurstRequest {
                        component: Component::User,
                        tid: Tid::KERNEL,
                        va: VirtAddr::new(page * PAGE),
                        pa: PhysAddr::new(page * PAGE),
                        rem_words: PAGE / WORD_BYTES,
                        page_end_va: (page + 1) * PAGE,
                        budget_milli: 1 << 40,
                        cpi_milli: 1000,
                        dilate_ov_milli: 0,
                        masked: false,
                        want_victims: false,
                    };
                    if let Some(served) = tw.service_burst(&mut traps, &mut sched, &req) {
                        misses += served.chunks;
                    }
                    i += 1;
                }
                misses
            }))
        })
        .collect();
    mean(&per_geom)
}

/// `TrapMap::clean_span` over a workload's user text: every line of
/// the footprint registered (trapped) and a cache-sized random share
/// of it resident (clear), queried with procedure-sized runs at
/// procedure-aligned offsets, in ns per call.
pub fn clean_span_ns(
    tr: &mut Tracer,
    parent: Option<usize>,
    shapes: &[(Workload, CacheConfig)],
    seed: SeedSeq,
) -> f64 {
    const CALLS: u64 = 200_000;
    let per_shape: Vec<f64> = shapes
        .iter()
        .map(|&(w, cfg)| {
            let stream = w.spec().user_stream;
            let line = cfg.line_bytes();
            let footprint = stream.footprint_bytes.next_multiple_of(PAGE);
            let mut traps = TrapMap::new(footprint, line);
            traps.set_range(PhysAddr::new(0), footprint);
            let resident = (cfg.size_bytes() as f64 / footprint as f64).min(1.0);
            let mut rng = seed.derive("bench-clean-span", cfg.size_bytes()).rng();
            for l in 0..footprint / line {
                if rng.gen_bool(resident) {
                    traps.clear_range(PhysAddr::new(l * line), line);
                }
            }
            let procs = (footprint / stream.proc_bytes).max(1);
            let starts: Vec<u64> = (0..1024)
                .map(|_| rng.gen_range(0..procs) * stream.proc_bytes)
                .collect();
            let mut i = 0usize;
            batches(tr, parent, "mem.clean_span", || {
                for _ in 0..CALLS {
                    let pa = PhysAddr::new(starts[i % starts.len()]);
                    black_box(traps.clean_span(black_box(pa), stream.proc_bytes));
                    i += 1;
                }
                CALLS
            })
        })
        .collect();
    mean(&per_shape)
}

/// A trial's fixed cost — boot, stream tables and page registration —
/// from each configuration run at a scale divisor so large the trial
/// executes a single instruction, in ms per trial.
pub fn trial_fixed_ms(
    tr: &mut Tracer,
    parent: Option<usize>,
    configs: &[SystemConfig],
    base: SeedSeq,
) -> f64 {
    let per_config: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            let tiny = [cfg.clone().with_scale(u64::MAX)];
            let ns = batches(tr, parent, "sim.fixed_trial", || {
                black_box(run_sweep_cell(&tiny, 1, base, 0, ObsConfig::default()).is_ok());
                1
            });
            ns / 1e6
        })
        .collect();
    mean(&per_config)
}
