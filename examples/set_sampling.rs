//! Set sampling: trading measurement variance for speed (§3.2,
//! Figure 3, Table 8).
//!
//! Runs mpeg_play at sampling fractions 1/1 … 1/16 and reports the
//! slowdown (drops proportionally) and the spread of the expanded miss
//! estimate over multiple trials (grows).
//!
//! Run with: `cargo run --release --example set_sampling`

use tapeworm::core::CacheConfig;
use tapeworm::sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm::stats::trials::run_trials;
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = SeedSeq::new(1994);
    let cache = CacheConfig::new(2 * 1024, 16, 1)?;

    println!("mpeg_play user task, 2K direct-mapped cache, 8 trials per point\n");
    println!(
        "{:>8}  {:>9}  {:>14}  {:>8}",
        "sample", "slowdown", "misses (est.)", "spread s%"
    );
    for den in [1u64, 2, 4, 8, 16] {
        let cfg = SystemConfig::cache(Workload::MpegPlay, cache)
            .with_components(ComponentSet::user_only())
            .with_scale(500)
            .with_sampling(den);
        let mut slowdown = 0.0;
        let trials = run_trials(base.derive("sampling-demo", den), 8, |trial| {
            let r = TrialRunner::new()
                .run(&cfg, base, trial)
                .expect("feasible config")
                .result;
            slowdown = r.slowdown();
            r.total_misses()
        })?;
        let s = trials.summary();
        println!(
            "{:>7}  {:>9.2}  {:>14.0}  {:>8.1}%",
            format!("1/{den}"),
            slowdown,
            s.mean(),
            s.stddev_pct_of_mean()
        );
    }
    println!(
        "\nSlowdown falls in direct proportion to the fraction of sets sampled\n\
         (the hardware filters unsampled lines for free); the price is variance\n\
         in the expanded estimate, so sampled experiments need more trials."
    );
    Ok(())
}
