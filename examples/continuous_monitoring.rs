//! Continuous monitoring — §5's closing vision, runnable.
//!
//! "Simulations can be driven by the memory references generated
//! during an actual user's session, because Tapeworm slowdowns can be
//! made imperceptible to the user. This makes it possible to watch for
//! interesting cases that cannot be identified by traditional batch
//! simulations."
//!
//! We run sdet (a bursty, 281-task software-development workload) with
//! per-window miss sampling, render the miss-ratio timeline, and flag
//! the windows a batch mean would have hidden.
//!
//! Run with: `cargo run --release --example continuous_monitoring`

use std::num::NonZeroU64;

use tapeworm::core::CacheConfig;
use tapeworm::sim::{SystemConfig, TrialRunner, WindowSample};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = CacheConfig::new(4 * 1024, 16, 1)?;
    let cfg = SystemConfig::cache(Workload::Sdet, cache).with_scale(200);
    const WINDOW: u64 = 100_000;

    let run = TrialRunner::new()
        .window(NonZeroU64::new(WINDOW).expect("positive window"))
        .run(&cfg, SeedSeq::new(1994), SeedSeq::new(6))?;
    let (result, windows) = (run.result, run.windows);
    // Each window spans the instructions since the previous one closed
    // (a window closes at the first quantum boundary past its period).
    let ratios: Vec<f64> = WindowSample::miss_ratios(&windows).collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);

    println!(
        "sdet, 4K DM cache: {} windows of {}k instructions (batch mean ratio {:.4})\n",
        ratios.len(),
        WINDOW / 1000,
        mean
    );
    for (i, (w, r)) in windows.iter().zip(&ratios).enumerate() {
        let bar = "#".repeat((r / max * 50.0).round() as usize);
        let flag = if *r > 1.03 * mean {
            "  <-- above-mean burst"
        } else if *r < 0.97 * mean {
            "  <-- quiet phase"
        } else {
            ""
        };
        println!(
            "w{:02} @{:>8} instr  {:.4}  {bar}{flag}",
            i, w.end_instructions, r
        );
    }

    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nWindow ratios span {:.4}..{:.4} ({:.1}% swing) around the batch mean\n\
         {:.4} — task-churn texture a single whole-run number (total ratio\n\
         {:.4}, slowdown {:.2}x) cannot show, and exactly what the paper's\n\
         continuous-monitoring mode is for.",
        min,
        max,
        100.0 * (max - min) / mean,
        mean,
        result.total_miss_ratio(),
        result.slowdown()
    );
    Ok(())
}
