// Property-based suites need the external `proptest` crate, which the
// offline build intentionally omits. Enable with
// `--features proptest` after restoring the dev-dependency (see ci.sh).
#![cfg(feature = "proptest")]

//! Property-based tests of the experiment engine, at tiny instruction
//! scale so hundreds of full-system trials stay fast.

use std::num::NonZeroU64;

use proptest::prelude::*;
use tapeworm_core::{CacheConfig, Indexing};
use tapeworm_sim::{AllocPolicy, ComponentSet, SystemConfig, TrialRun, TrialRunner};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const TINY: u64 = 20_000; // mpeg_play: ~71k instructions

fn any_workload() -> impl Strategy<Value = Workload> {
    (0usize..8).prop_map(|i| Workload::ALL[i])
}

fn any_cache() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(1u64), Just(2), Just(4), Just(16)],
        prop_oneof![Just(1u32), Just(2)],
        any::<bool>(),
    )
        .prop_map(|(kb, ways, virt)| {
            let c = CacheConfig::new(kb * 1024, 16, ways).unwrap();
            if virt {
                c.with_indexing(Indexing::Virtual)
            } else {
                c
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine is a pure function of its two seeds for any
    /// workload/cache combination.
    #[test]
    fn trials_are_deterministic(
        w in any_workload(),
        cache in any_cache(),
        base in any::<u64>(),
        trial in any::<u64>(),
    ) {
        let cfg = SystemConfig::cache(w, cache).with_scale(TINY);
        let a = one_trial(&cfg, SeedSeq::new(base), SeedSeq::new(trial)).result;
        let b = one_trial(&cfg, SeedSeq::new(base), SeedSeq::new(trial)).result;
        prop_assert_eq!(a, b);
    }

    /// Conservation: every component's misses are bounded by the
    /// instructions it could have executed, and totals are internally
    /// consistent.
    #[test]
    fn results_are_internally_consistent(
        w in any_workload(),
        cache in any_cache(),
        seed in any::<u64>(),
    ) {
        let cfg = SystemConfig::cache(w, cache).with_scale(TINY);
        let r = one_trial(&cfg, SeedSeq::new(seed), SeedSeq::new(seed ^ 1)).result;
        prop_assert!(r.total_misses() >= 0.0);
        // At one trap per line of 4 instructions, misses can't exceed
        // references... with generous slack for data structures.
        prop_assert!(r.total_misses() <= r.instructions as f64);
        prop_assert!(r.workload_cycles >= r.instructions); // CPI >= 1
        prop_assert!(r.slowdown() >= 0.0);
        prop_assert!(r.page_faults > 0, "demand paging must occur");
        // At tiny instruction budgets not every fork is reached, but
        // task creation never exceeds the Table 4 count.
        prop_assert!(r.tasks_created >= 1);
        prop_assert!(r.tasks_created <= u64::from(w.spec().user_task_count));
    }

    /// Measuring a subset of components never yields more misses than
    /// measuring all of them (with identical seeds).
    #[test]
    fn subsets_never_exceed_all_activity(
        w in any_workload(),
        seed in any::<u64>(),
    ) {
        let cache = CacheConfig::new(4096, 16, 1).unwrap();
        let all = one_trial(
            &SystemConfig::cache(w, cache).with_scale(TINY),
            SeedSeq::new(seed),
            SeedSeq::new(7),
        )
        .result;
        let user = one_trial(
            &SystemConfig::cache(w, cache)
                .with_components(ComponentSet::user_only())
                .with_scale(TINY),
            SeedSeq::new(seed),
            SeedSeq::new(7),
        )
        .result;
        prop_assert!(user.total_misses() <= all.total_misses() + 1e-9);
    }

    /// Windowed monitoring partitions the raw miss count exactly.
    #[test]
    fn windows_partition_the_miss_count(seed in any::<u64>()) {
        let cache = CacheConfig::new(2048, 16, 1).unwrap();
        let cfg = SystemConfig::cache(Workload::Espresso, cache).with_scale(TINY);
        let run = TrialRunner::new()
            .window(NonZeroU64::new(5_000).expect("positive window"))
            .run(&cfg, SeedSeq::new(seed), SeedSeq::new(3))
            .expect("feasible config");
        let (r, windows) = (run.result, run.windows);
        let windowed: u64 = windows.iter().map(|w| w.misses).sum();
        // The final partial window is not emitted; the sum must be a
        // lower bound within one window of the total raw misses.
        let raw: u64 = tapeworm_machine::Component::ALL
            .iter()
            .map(|&c| r.raw_misses(c))
            .sum();
        prop_assert!(windowed <= raw);
        let mut ends = windows.iter().map(|w| w.end_instructions);
        let mut prev = 0;
        for e in &mut ends {
            prop_assert!(e > prev);
            prev = e;
        }
    }

    /// Allocation policies are orthogonal to virtual-indexed results:
    /// the allocator cannot affect a VA-indexed cache's miss count.
    #[test]
    fn allocator_is_invisible_to_virtual_indexing(seed in any::<u64>()) {
        let cache = CacheConfig::new(8192, 16, 1)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let run = |alloc| {
            one_trial(
                &SystemConfig::cache(Workload::Xlisp, cache)
                    .with_scale(TINY)
                    .with_alloc(alloc),
                SeedSeq::new(seed),
                SeedSeq::new(9),
            )
            .result
            .total_misses()
        };
        let random = run(AllocPolicy::Random);
        let seq = run(AllocPolicy::Sequential);
        let colored = run(AllocPolicy::Coloring(64));
        prop_assert_eq!(random, seq);
        prop_assert_eq!(seq, colored);
    }
}
