//! Ablation: the three miss-handler cost models (§4.1 / §4.3).
//!
//! The same workload and cache, simulated with the original C handler
//! (>2000 cycles), the optimized assembly handler (246 cycles) and the
//! paper's hardware-assisted estimate (~50 cycles). Slowdown scales
//! accordingly; miss counts barely move (only through time dilation).

use tapeworm_bench::{base_seed, dm4, scale};
use tapeworm_sim::{CostKind, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let scale = scale();
    let mut t = Table::new(
        [
            "Handler",
            "Cycles/miss",
            "Slowdown",
            "Misses",
            "Dilation interrupts",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Handler cost ablation: mpeg_play, 4K DM, all activity (scale 1/{scale})"
    ));
    for (label, kind) in [
        ("unoptimized C", CostKind::UnoptimizedC),
        ("optimized asm (paper)", CostKind::Optimized),
        ("hardware-assisted", CostKind::HardwareAssisted),
    ] {
        let mut cfg = SystemConfig::cache(Workload::MpegPlay, dm4(4)).with_scale(scale);
        cfg.cost = kind;
        let r = TrialRunner::new()
            .run(&cfg, base, SeedSeq::new(13))
            .expect("feasible config")
            .result;
        t.row(vec![
            label.to_string(),
            kind.model().cycles_per_miss(&dm4(4)).to_string(),
            format!("{:.2}", r.slowdown()),
            format!("{:.0}", r.total_misses()),
            r.clock_interrupts.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "Slower handlers dilate time, draw more clock interrupts, and inflate\n\
         the measured miss count — the Figure 4 bias driven by handler cost."
    );
}
