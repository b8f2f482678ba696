//! Figure 3: Tapeworm slowdowns across simulation configurations —
//! associativity, line size, and degree of set sampling (mpeg_play).
//!
//! Each panel is a grid of independent cells; all three grids fan out
//! over the trial scheduler in one batch (`TW_THREADS` workers), with
//! results committed back in panel/row/column order.

use tapeworm_bench::{base_seed, scale, threads};
use tapeworm_core::CacheConfig;
use tapeworm_sim::{ComponentSet, SimModel, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::trials::TrialScheduler;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

fn main() {
    // Flat cell list spanning all three panels: (bytes, line, ways,
    // sampling denominator).
    let mut cells: Vec<(u64, u64, u32, u64)> = Vec::new();
    // Panel 1: associativity (1K-8K caches, 4-word lines).
    for kb in [1u64, 2, 4, 8] {
        for ways in [1u32, 2, 4] {
            cells.push((kb * 1024, 16, ways, 1));
        }
    }
    let panel2 = cells.len();
    // Panel 2: line size (direct-mapped).
    for kb in [1u64, 2, 4, 8] {
        for line in [16u64, 32, 64] {
            cells.push((kb * 1024, line, 1, 1));
        }
    }
    let panel3 = cells.len();
    // Panel 3: set sampling (direct-mapped, 4-word lines). "Slowdowns
    // decrease in direct proportion to the fraction of sets sampled."
    for kb in [1u64, 2, 4] {
        for den in [1u64, 2, 4, 8, 16] {
            cells.push((kb * 1024, 16, 1, den));
        }
    }

    let slowdowns = TrialScheduler::new(threads()).run(cells.len(), |i| {
        let (bytes, line, ways, den) = cells[i];
        let cache = CacheConfig::new(bytes, line, ways).expect("valid");
        let cfg = SystemConfig::cache(Workload::MpegPlay, cache)
            .with_components(ComponentSet::user_only())
            .with_scale(scale())
            .with_sampling(den);
        TrialRunner::new()
            .run(&cfg, base_seed(), SeedSeq::new(3))
            .expect("feasible config")
            .result
            .slowdown()
    });

    let panel = |title: &str, cols: &[&str], rows: &[u64], chunk: &[f64]| {
        let mut header = vec!["Cache".to_string()];
        header.extend(cols.iter().map(|c| c.to_string()));
        let mut t = Table::new(header);
        t.numeric().title(title.to_string());
        for (kb, vals) in rows.iter().zip(chunk.chunks(cols.len())) {
            let mut row = vec![format!("{kb}K")];
            row.extend(vals.iter().map(|s| format!("{s:.2}")));
            t.row(row);
        }
        println!("{t}");
    };

    panel(
        "Figure 3a: slowdown vs associativity (4-word lines)",
        &["1-way", "2-way", "4-way"],
        &[1, 2, 4, 8],
        &slowdowns[..panel2],
    );
    panel(
        "Figure 3b: slowdown vs line size (direct-mapped)",
        &["4-word", "8-word", "16-word"],
        &[1, 2, 4, 8],
        &slowdowns[panel2..panel3],
    );
    panel(
        "Figure 3c: slowdown vs degree of set sampling",
        &["1/1", "1/2", "1/4", "1/8", "1/16"],
        &[1, 2, 4],
        &slowdowns[panel3..],
    );
    let _ = SimModel::Cache(CacheConfig::new(1024, 16, 1).expect("valid"));
}
