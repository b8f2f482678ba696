//! Figure 4: measurement error due to time dilation.
//!
//! mpeg_play including all system activity, 4K direct-mapped
//! physically-addressed I-cache with 4-word lines. "Time dilation was
//! varied by changing the degree of sampling" — heavier sampling means
//! less slowdown, fewer extra clock interrupts, and fewer
//! interrupt-induced conflict misses. The paper's curve: error grows
//! steeply from slowdowns 0–2 and levels off (14.4% at slowdown 9.29).
//!
//! All trial cells — undilated baseline, sampled points, and the
//! unsampled point — fan out over one scheduler batch.

use std::path::Path;

use tapeworm_bench::{base_seed, dm4, scale, threads};
use tapeworm_obs::{MetricsReport, TrialMetrics};
use tapeworm_sim::{SystemConfig, TrialResult, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::trials::TrialScheduler;
use tapeworm_stats::SeedSeq;

use tapeworm_workload::Workload;

/// Paper reference rows: (slowdown, misses ×10⁶, increase %).
const PAPER: [(f64, f64, f64); 5] = [
    (0.43, 90.56, 0.0),
    (0.96, 91.54, 1.2),
    (2.08, 95.70, 5.7),
    (4.42, 99.66, 10.1),
    (9.29, 103.57, 14.4),
];

const BASELINE_TRIALS: u64 = 4;

fn main() {
    let base = base_seed();
    let scale = scale();

    // Baseline: no dilation at all (overhead does not advance the
    // clock) — the "true" miss count, averaged over a few trials.
    let undilated_cfg = {
        let mut c = SystemConfig::cache(Workload::MpegPlay, dm4(4)).with_scale(scale);
        c.dilate = false;
        c
    };
    // Flat cell list: baseline trials first, then (denominator, trial)
    // cells for the five dilation settings. The unsampled point (den=1)
    // is the most expensive, so it gets fewer trials.
    let mut cells: Vec<(Option<u64>, u64)> = (0..BASELINE_TRIALS).map(|k| (None, k)).collect();
    let dilated_start = cells.len();
    let mut row_bounds = Vec::new();
    for den in [16u64, 8, 4, 2, 1] {
        let trials = if den > 1 { 6 } else { 2 };
        for k in 0..trials {
            cells.push((Some(den), k));
        }
        row_bounds.push(cells.len() - dilated_start);
    }

    let results: Vec<(TrialResult, TrialMetrics)> =
        TrialScheduler::new(threads()).run(cells.len(), |i| {
            let (cfg, trial) = match cells[i] {
                (None, k) => (undilated_cfg.clone(), SeedSeq::new(40 + k)),
                (Some(den), k) => (
                    SystemConfig::cache(Workload::MpegPlay, dm4(4))
                        .with_scale(scale)
                        .with_sampling(den),
                    SeedSeq::new(100 + k),
                ),
            };
            let run = TrialRunner::new()
                .run(&cfg, base, trial)
                .expect("feasible config");
            (run.result, run.metrics)
        });

    let baseline: f64 = results[..dilated_start]
        .iter()
        .map(|(r, _)| r.total_misses())
        .sum::<f64>()
        / BASELINE_TRIALS as f64;

    let mut t = Table::new(
        [
            "Dilation (slowdown)",
            "Misses (x10^6 est.)",
            "Increase %",
            "Phase dilation",
            "paper row",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Figure 4: error due to time dilation (mpeg_play, all activity, 4K DM, scale 1/{scale})"
    ));

    let mut report = MetricsReport::new("fig4_dilation", "full");
    let mut undilated = TrialMetrics::new();
    for (_, m) in &results[..dilated_start] {
        undilated.merge(m);
    }
    report.push("undilated", BASELINE_TRIALS, undilated);

    let dilated = &results[dilated_start..];
    let densities = [16u64, 8, 4, 2, 1];
    let mut row_start = 0;
    for (i, &row_end) in row_bounds.iter().enumerate() {
        let rows = &dilated[row_start..row_end];
        row_start = row_end;
        let trials = rows.len() as f64;
        let misses = rows.iter().map(|(r, _)| r.total_misses()).sum::<f64>() / trials;
        let slow = rows.iter().map(|(r, _)| r.slowdown()).sum::<f64>() / trials;
        let increase = 100.0 * (misses - baseline) / baseline;
        // The live per-phase account: merged over the row's trials, its
        // dilation (1 + overhead/workload) independently reproduces the
        // x axis of the figure.
        let mut row_metrics = TrialMetrics::new();
        for (_, m) in rows {
            row_metrics.merge(m);
        }
        let phase_dilation = row_metrics.phases.dilation();
        report.push(
            &format!("sample-{}", densities[i]),
            rows.len() as u64,
            row_metrics,
        );
        let (p_slow, p_misses, p_inc) = PAPER[i];
        t.row(vec![
            format!("{slow:.2}"),
            format!("{:.2}", misses / 1.0e6),
            format!("{increase:.1}%"),
            format!("{phase_dilation:.2}x"),
            format!("({p_slow:.2} -> {p_misses:.2}M, {p_inc:.1}%)"),
        ]);
    }
    println!("{t}");
    println!("Baseline (undilated) misses: {:.2}M", baseline / 1.0e6);
    report
        .write(Path::new("results/METRICS_fig4.json"))
        .expect("results/METRICS_fig4.json must be writable");
    println!("wrote results/METRICS_fig4.json");
}
