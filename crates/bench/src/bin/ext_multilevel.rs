//! Extension: two-level cache simulation (§3.2's "multi-level caches"
//! capability, exercised end to end).
//!
//! Sweeps L2 sizes behind a 1K L1 for mpeg_play and reports L1/L2 miss
//! counts, the local L2 hit ratio, and the slowdown. The trap count —
//! and thus the simulation cost — depends only on L1, demonstrating
//! that a trap-driven simulator evaluates a whole hierarchy for the
//! price of its first level.

use tapeworm_bench::{base_seed, dm4, scale};
use tapeworm_core::CacheConfig;
use tapeworm_sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(12);
    let scale = scale();
    let l1 = dm4(1);

    let mut t = Table::new(
        [
            "L2 size",
            "L1 misses",
            "L2 misses",
            "L2 local hit%",
            "Slowdown",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Two-level simulation: mpeg_play user task, 1K DM L1 (scale 1/{scale})"
    ));

    // Single-level baseline for comparison.
    let single = TrialRunner::new()
        .run(
            &SystemConfig::cache(Workload::MpegPlay, l1)
                .with_components(ComponentSet::user_only())
                .with_scale(scale),
            base,
            trial,
        )
        .expect("feasible config")
        .result;
    t.row(vec![
        "(none)".into(),
        format!("{:.0}", single.total_misses()),
        format!("{:.0}", single.total_misses()),
        "0%".into(),
        format!("{:.2}", single.slowdown()),
    ]);

    for l2_kb in [4u64, 16, 64, 256] {
        let l2 = CacheConfig::new(l2_kb * 1024, 16, 2).expect("valid");
        let cfg = SystemConfig::two_level(Workload::MpegPlay, l1, l2)
            .with_components(ComponentSet::user_only())
            .with_scale(scale);
        let r = TrialRunner::new()
            .run(&cfg, base, trial)
            .expect("feasible config")
            .result;
        let l1_misses = r.total_misses();
        let l2_misses = r.total_l2_misses().expect("two-level run");
        t.row(vec![
            format!("{l2_kb}K"),
            format!("{l1_misses:.0}"),
            format!("{l2_misses:.0}"),
            format!("{:.0}%", 100.0 * (1.0 - l2_misses / l1_misses)),
            format!("{:.2}", r.slowdown()),
        ]);
    }
    println!("{t}");
    println!(
        "L1 misses (and trap cost) are constant; growing the software L2 turns\n\
         most of them into L2 hits — hierarchy evaluation at L1 price."
    );
}
