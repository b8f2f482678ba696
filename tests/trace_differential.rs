//! Differential validation: trap-driven Tapeworm versus the Pixie +
//! Cache2000 trace-driven pipeline over the identical reference
//! stream (Table 6, the "From Traces" column).
//!
//! The paper validated Tapeworm by comparing its user-component miss
//! counts against traces of the same workloads; with virtual indexing,
//! no set sampling and FIFO replacement on both sides, the two
//! simulators are computing the same function and must agree *exactly*
//! — not approximately. Any drift means one engine's cache model has
//! regressed.
//!
//! Multi-task workloads are skipped the same way the paper's tooling
//! skipped them: Pixie can only trace a single task, so
//! `run_trace_driven` refuses them and that refusal is itself asserted.

use tapeworm::core::{CacheConfig, Indexing};
use tapeworm::machine::Component;
use tapeworm::sim::compare::run_trace_driven;
use tapeworm::sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm::stats::SeedSeq;
use tapeworm::trace::TracePolicy;
use tapeworm::workload::Workload;

const SCALE: u64 = 20_000;

fn base() -> SeedSeq {
    SeedSeq::new(1994)
}

fn config(w: Workload, cache: CacheConfig) -> SystemConfig {
    SystemConfig::cache(w, cache)
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE)
}

/// Every single-task workload, at three cache sizes, agrees with the
/// trace-driven baseline to the exact miss count.
#[test]
fn every_traceable_workload_agrees_exactly_with_cache2000() {
    let mut validated = 0usize;
    let mut skipped = Vec::new();
    for w in Workload::ALL {
        for kb in [1u64, 4, 16] {
            let cache = CacheConfig::new(kb * 1024, 16, 1)
                .expect("valid geometry")
                .with_indexing(Indexing::Virtual);
            let cfg = config(w, cache);
            let tr = match run_trace_driven(&cfg, cache, TracePolicy::Fifo, base()) {
                Ok(tr) => tr,
                Err(_) => {
                    // Pixie's single-task limitation; every size of a
                    // multi-task workload must refuse consistently.
                    skipped.push(w);
                    continue;
                }
            };
            let tw = TrialRunner::new()
                .run(&cfg, base(), base().derive("differential", kb))
                .expect("feasible config")
                .result;
            assert_eq!(
                tw.misses(Component::User) as u64,
                tr.misses,
                "{w} @ {kb}K: trap-driven and trace-driven miss counts diverged"
            );
            assert_eq!(
                tw.raw_misses(Component::User),
                tr.misses,
                "{w} @ {kb}K: unsampled raw count must equal the estimate"
            );
            validated += 1;
        }
    }
    assert!(
        validated >= 4 * 3,
        "expected at least four single-task workloads to validate, got {validated}/3 sizes"
    );
    // Each skipped workload refused at all three sizes, or not at all.
    assert_eq!(
        skipped.len() % 3,
        0,
        "inconsistent Pixie refusals: {skipped:?}"
    );
}

/// The agreement is independent of the trial seed: virtual indexing
/// without sampling removes every source of run-to-run variance, so
/// any trial of the sweep reproduces the trace-validated count.
#[test]
fn agreement_is_trial_seed_independent() {
    let cache = CacheConfig::new(4 * 1024, 16, 1)
        .expect("valid geometry")
        .with_indexing(Indexing::Virtual);
    let cfg = config(Workload::Espresso, cache);
    let tr = run_trace_driven(&cfg, cache, TracePolicy::Fifo, base()).expect("single-task");
    for trial in 0..3u64 {
        let tw = TrialRunner::new()
            .run(&cfg, base(), base().derive("trial", trial))
            .expect("feasible config")
            .result;
        assert_eq!(
            tw.misses(Component::User) as u64,
            tr.misses,
            "trial {trial}: virtual-indexed unsampled runs must all agree"
        );
    }
}
