//! Figure 2: Tapeworm vs Cache2000 slowdowns across I-cache sizes.
//!
//! mpeg_play, direct-mapped caches with 4-word lines, 1K–1024K.
//! "Because the Pixie/Cache2000 combination can only measure a
//! single-task workload, Tapeworm attributes were set to measure
//! activity only from the mpeg_play task … However, slowdowns in both
//! cases were computed using the total wall-clock run time for the
//! workload."
//!
//! Every cache size is an independent cell, so the whole ladder —
//! Tapeworm trial plus trace-driven pipeline per size — fans out over
//! the trial scheduler (`TW_THREADS` workers) and each point is
//! computed exactly once, shared by the table and the chart.

use std::path::Path;

use tapeworm_bench::{base_seed, dm4, scale, threads};
use tapeworm_machine::Component;
use tapeworm_obs::MetricsReport;
use tapeworm_sim::compare::run_trace_driven;
use tapeworm_sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::trials::TrialScheduler;
use tapeworm_stats::SeedSeq;
use tapeworm_trace::TracePolicy;
use tapeworm_workload::Workload;

/// Paper values: (KB, miss ratio, Cache2000 slowdown, Tapeworm slowdown).
const PAPER: [(u64, f64, f64, f64); 11] = [
    (1, 0.118, 30.2, 6.27),
    (2, 0.097, 28.8, 5.16),
    (4, 0.064, 27.0, 3.84),
    (8, 0.023, 24.2, 1.20),
    (16, 0.017, 23.5, 0.87),
    (32, 0.002, 22.4, 0.11),
    (64, 0.002, 22.3, 0.10),
    (128, 0.000, 22.0, 0.01),
    (256, 0.000, 22.1, 0.00),
    (512, 0.000, 22.1, 0.00),
    (1024, 0.000, 22.3, 0.00),
];

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(2);
    let scale = scale();
    let frac_user = Workload::MpegPlay.spec().frac_user;

    // One cell per cache size: (miss ratio, Tapeworm slowdown,
    // Cache2000 slowdown, observability metrics), committed in ladder
    // order.
    let points = TrialScheduler::new(threads()).run(PAPER.len(), |i| {
        let (kb, ..) = PAPER[i];
        let cache = dm4(kb);
        let cfg = SystemConfig::cache(Workload::MpegPlay, cache)
            .with_components(ComponentSet::user_only())
            .with_scale(scale);
        let run = TrialRunner::new()
            .run(&cfg, base, trial)
            .expect("feasible config");
        let (tw, metrics) = (run.result, run.metrics);
        let tw_ratio = tw.misses(Component::User) / (tw.instructions as f64 * frac_user);
        let c2k = run_trace_driven(&cfg, cache, TracePolicy::Lru, base)
            .expect("mpeg_play is single-task");
        (tw_ratio, tw.slowdown(), c2k.slowdown, metrics)
    });

    let mut t = Table::new(
        [
            "Cache",
            "Miss Ratio",
            "(paper)",
            "Cache2000 Slowdown",
            "(paper)",
            "Tapeworm Slowdown",
            "(paper)",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Figure 2: mpeg_play user task, direct-mapped, 4-word lines (scale 1/{scale})"
    ));

    for ((kb, p_ratio, p_c2k, p_tw), (tw_ratio, tw_slow, c2k_slow, _)) in
        PAPER.into_iter().zip(&points)
    {
        t.row(vec![
            format!("{kb}K"),
            format!("{tw_ratio:.3}"),
            format!("({p_ratio:.3})"),
            format!("{c2k_slow:.1}"),
            format!("({p_c2k:.1})"),
            format!("{tw_slow:.2}"),
            format!("({p_tw:.2})"),
        ]);
    }
    println!("{t}");
    println!(
        "Note: slowdowns use total workload run time; Tapeworm simulates only the\n\
         user task here, so its overhead scales with the user component's misses.\n"
    );

    // The figure itself, as an ASCII chart over the measured series.
    let labels: Vec<String> = PAPER.iter().map(|(kb, ..)| format!("{kb}K")).collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let tapeworm: Vec<f64> = points.iter().map(|p| p.1).collect();
    let cache2000: Vec<f64> = points.iter().map(|p| p.2).collect();
    println!(
        "{}",
        tapeworm_stats::table::ascii_chart(
            &label_refs,
            &[
                ("Cache2000 slowdown", cache2000),
                ("Tapeworm slowdown", tapeworm),
            ],
            46,
        )
    );

    let mut report = MetricsReport::new("fig2_slowdowns", "full");
    for ((kb, ..), point) in PAPER.into_iter().zip(points) {
        report.push(&format!("dm-{kb}k"), 1, point.3);
    }
    report
        .write(Path::new("results/METRICS_fig2.json"))
        .expect("results/METRICS_fig2.json must be writable");
    println!("wrote results/METRICS_fig2.json");
}
