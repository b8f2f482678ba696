//! End-to-end assertions of the paper's headline claims, at reduced
//! instruction scale so the suite stays fast.

use tapeworm::core::{CacheConfig, Indexing};
use tapeworm::machine::Component;
use tapeworm::sim::compare::{breakeven_miss_ratio, run_trace_driven};
use tapeworm::sim::{ComponentSet, SystemConfig, TrialRun, TrialRunner};
use tapeworm::stats::trials::run_trials;
use tapeworm::stats::SeedSeq;
use tapeworm::trace::TracePolicy;
use tapeworm::workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const SCALE: u64 = 2000;

#[allow(non_snake_case)]
fn BASE() -> SeedSeq {
    SeedSeq::new(1994)
}

fn dm4(kb: u64) -> CacheConfig {
    CacheConfig::new(kb * 1024, 16, 1).unwrap()
}

/// Abstract: "Tapeworm typically slows a system down by less than an
/// order of magnitude (10x) when cache miss ratios are under 10%, and
/// slowdowns approach zero as miss ratios decrease."
#[test]
fn slowdown_claim_from_the_abstract() {
    for kb in [1u64, 4, 64] {
        let cfg = SystemConfig::cache(Workload::MpegPlay, dm4(kb))
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE);
        let r = one_trial(&cfg, BASE(), SeedSeq::new(1)).result;
        let user_ratio = r.misses(Component::User) / (r.instructions as f64 * 0.446);
        if user_ratio < 0.10 {
            assert!(r.slowdown() < 10.0, "{kb}K: slowdown {}", r.slowdown());
        }
    }
    // Large cache: slowdown effectively zero.
    let cfg = SystemConfig::cache(Workload::MpegPlay, dm4(256))
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let r = one_trial(&cfg, BASE(), SeedSeq::new(1)).result;
    assert!(r.slowdown() < 1.0, "got {}", r.slowdown());
}

/// Figure 2: Tapeworm beats the trace-driven pipeline at every cache
/// size in the sweep, and the trace pipeline's slowdown is roughly
/// flat while Tapeworm's decays.
#[test]
fn figure2_shape() {
    let mut tw_slowdowns = Vec::new();
    let mut tr_slowdowns = Vec::new();
    for kb in [1u64, 8, 64] {
        let cache = dm4(kb);
        let cfg = SystemConfig::cache(Workload::MpegPlay, cache)
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE);
        tw_slowdowns.push(one_trial(&cfg, BASE(), SeedSeq::new(2)).result.slowdown());
        tr_slowdowns.push(
            run_trace_driven(&cfg, cache, TracePolicy::Lru, BASE())
                .unwrap()
                .slowdown,
        );
    }
    for (tw, tr) in tw_slowdowns.iter().zip(&tr_slowdowns) {
        assert!(tw < tr, "tapeworm {tw} must beat trace {tr}");
    }
    // Tapeworm decays by at least an order of magnitude over the sweep.
    assert!(tw_slowdowns[0] > 10.0 * tw_slowdowns[2]);
    // Trace-driven stays within a ~1.5x band.
    assert!(tr_slowdowns[0] / tr_slowdowns[2] < 1.5);
}

/// §4.1: the break-even ratio between the approaches is about 4 hits
/// per miss.
#[test]
fn breakeven_claim() {
    let r = breakeven_miss_ratio(246, 53);
    let hits_per_miss = 1.0 / r - 1.0;
    assert!((3.0..5.0).contains(&hits_per_miss), "got {hits_per_miss}");
}

/// Table 6: for every workload, all-activity misses exceed the sum of
/// the dedicated components (interference is positive), and for the
/// OS-intensive suites the system components out-miss the user tasks.
#[test]
fn table6_structure() {
    for w in [Workload::Ousterhout, Workload::Xlisp] {
        let run = |set: ComponentSet| {
            one_trial(
                &SystemConfig::cache(w, dm4(4))
                    .with_components(set)
                    .with_scale(SCALE),
                BASE(),
                SeedSeq::new(3),
            )
            .result
        };
        let user = run(ComponentSet::user_only()).total_misses();
        let servers = run(ComponentSet::servers_only()).total_misses();
        let kernel = run(ComponentSet::kernel_only()).total_misses();
        let all = run(ComponentSet::all()).total_misses();
        assert!(all > user + servers + kernel, "{w}: no interference");
        if w == Workload::Ousterhout {
            assert!(servers + kernel > 5.0 * user, "{w}: system must dominate");
        } else {
            assert!(user > servers + kernel, "{w}: user must dominate");
        }
    }
}

/// Table 6 validation: trap-driven user miss counts equal the
/// trace-driven counts on the identical stream (virtually indexed,
/// matching replacement).
#[test]
fn user_component_validates_against_traces() {
    for w in [Workload::Espresso, Workload::Xlisp] {
        let cache = dm4(4).with_indexing(Indexing::Virtual);
        let cfg = SystemConfig::cache(w, cache)
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE);
        let tw = one_trial(&cfg, BASE(), SeedSeq::new(4)).result;
        let tr = run_trace_driven(&cfg, cache, TracePolicy::Fifo, BASE()).unwrap();
        assert_eq!(
            tw.misses(Component::User) as u64,
            tr.misses,
            "{w}: counts must agree exactly"
        );
    }
}

/// Tables 8-10: the variance taxonomy. Sampling and physical indexing
/// produce trial-to-trial spread; virtual indexing without sampling is
/// exactly repeatable.
#[test]
fn variance_taxonomy() {
    let spread = |cfg: SystemConfig, tag: u64| {
        let set = run_trials(BASE().derive("variance", tag), 5, |trial| {
            one_trial(&cfg, BASE(), trial).result.total_misses()
        })
        .expect("five trials");
        set.summary().stddev_pct_of_mean()
    };
    // Physically-indexed, cache > page: page-allocation variance.
    let phys = spread(
        SystemConfig::cache(Workload::MpegPlay, dm4(32))
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE),
        0,
    );
    assert!(phys > 1.0, "physical indexing must vary, s% = {phys}");
    // Sampling on a virtual cache: sampling variance.
    let sampled = spread(
        SystemConfig::cache(Workload::MpegPlay, dm4(2).with_indexing(Indexing::Virtual))
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE)
            .with_sampling(8),
        1,
    );
    assert!(sampled > 0.5, "sampling must vary, s% = {sampled}");
    // Virtual + unsampled: zero variance.
    let clean = spread(
        SystemConfig::cache(Workload::MpegPlay, dm4(32).with_indexing(Indexing::Virtual))
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE),
        2,
    );
    assert_eq!(clean, 0.0, "virtual unsampled must be deterministic");
}

/// Figure 4: more time dilation, more measured misses.
#[test]
fn dilation_increases_misses() {
    let mut undilated = SystemConfig::cache(Workload::MpegPlay, dm4(4)).with_scale(SCALE);
    undilated.dilate = false;
    let base_misses = one_trial(&undilated, BASE(), SeedSeq::new(5))
        .result
        .total_misses();

    let mut dilated = SystemConfig::cache(Workload::MpegPlay, dm4(4)).with_scale(SCALE);
    dilated.cost = tapeworm::sim::CostKind::UnoptimizedC; // extreme dilation
    let r = one_trial(&dilated, BASE(), SeedSeq::new(5)).result;
    assert!(
        r.total_misses() > base_misses * 1.02,
        "dilated {} vs baseline {base_misses}",
        r.total_misses()
    );
}

/// Golden miss counts at SCALE=2000. These pin the entire simulation
/// pipeline end-to-end: workload stream generation, seed derivation,
/// trap handling, and sampling expansion. A diff here means the
/// simulator's observable behaviour changed — every table in the
/// paper reproduction shifts with it, so the change must be deliberate.
#[test]
fn golden_miss_counts_at_scale_2000() {
    let golden = [
        // (workload, cache KB, raw user misses, instructions)
        (Workload::MpegPlay, 16u64, 7653u64, 727_373u64),
        (Workload::Espresso, 4, 4124, 273_901),
    ];
    for (workload, kb, raw, instructions) in golden {
        let cfg = SystemConfig::cache(workload, dm4(kb))
            .with_components(ComponentSet::user_only())
            .with_scale(SCALE);
        let r = one_trial(&cfg, BASE(), BASE().derive("golden", 0)).result;
        assert_eq!(
            r.raw_misses(Component::User),
            raw,
            "{workload:?} {kb}K raw user misses"
        );
        assert_eq!(
            r.instructions, instructions,
            "{workload:?} {kb}K instructions"
        );
        // user_only measurement: all observed misses belong to User.
        assert_eq!(r.total_misses(), raw as f64);
    }
}
