//! Table 10: measurement variation removed.
//!
//! Same setup as Table 7 (16 trials, 16K, all activity) but with both
//! variance sources disabled: virtually-indexed caches and no set
//! sampling. Trial-to-trial spread collapses — trap-driven simulation
//! can be made as repeatable as trace-driven when desired.

use tapeworm_bench::{base_seed, paper_millions, scale, threads};
use tapeworm_core::{CacheConfig, Indexing};
use tapeworm_sim::{SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::trials::TrialScheduler;
use tapeworm_workload::Workload;

const TRIALS: usize = 16;

fn main() {
    let base = base_seed();
    let scale = scale();
    let mut t = Table::new(
        [
            "Workload",
            "Misses x̄ (10^6)",
            "s",
            "(s%)",
            "Min",
            "Max",
            "Range",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Table 10: variation removed — virtually-indexed, no sampling,\n\
         {TRIALS} trials, 16K DM, all activity (scale 1/{scale})"
    ));

    let cache = CacheConfig::new(16 * 1024, 16, 1)
        .expect("valid")
        .with_indexing(Indexing::Virtual);
    let mut order = Workload::ALL;
    order.sort_by_key(|w| w.name());
    for w in order {
        let cfg = SystemConfig::cache(w, cache).with_scale(scale);
        let set = TrialScheduler::new(threads())
            .run_trials(base.derive("tab10", w as u64), TRIALS, |trial| {
                TrialRunner::new()
                    .run(&cfg, base, trial)
                    .expect("feasible config")
                    .result
                    .total_misses()
            })
            .expect("TRIALS > 0");
        let s = set.summary();
        t.row(vec![
            w.to_string(),
            format!("{:.2}", paper_millions(s.mean(), scale)),
            format!("{:.3}", paper_millions(s.stddev(), scale)),
            format!("({:.1}%)", s.stddev_pct_of_mean()),
            format!("{:.2}", paper_millions(s.min(), scale)),
            format!("{:.2}", paper_millions(s.max(), scale)),
            format!("{:.3}", paper_millions(s.range(), scale)),
        ]);
    }
    println!("{t}");
    println!(
        "The simulator is exactly deterministic here, so s = 0; the paper's\n\
         residual 0-4% came from live-system noise we do not model."
    );
}
