//! Extension: the three tool generations side by side on a multi-task
//! workload.
//!
//! §2 related work orders the field: Pixie (user-level, single task),
//! the Mogul & Borg / Chen kernel trace buffer (complete, per-reference
//! cost), and trap-driven Tapeworm (complete, per-miss cost). This
//! binary runs all three on `ousterhout` and prints what each can see
//! and what it costs.

use tapeworm_bench::{base_seed, dm4, scale};
use tapeworm_machine::Component;
use tapeworm_sim::{SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_trace::Pixie;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(17);
    let scale = scale();
    let cache = dm4(4);
    let workload = Workload::Ousterhout;

    let mut t = Table::new(
        ["Tool", "Coverage", "Misses seen", "Slowdown"]
            .map(String::from)
            .to_vec(),
    );
    t.numeric().title(format!(
        "Tool generations on {workload} (multi-task, OS-heavy; 4K DM; scale 1/{scale})"
    ));

    // 1. Pixie: cannot even trace this workload.
    let pixie = Pixie::annotate(workload, 1000, base);
    t.row(vec![
        "Pixie + Cache2000 [Smith91]".into(),
        "single user task".into(),
        match pixie {
            Err(_) => "(refuses multi-task)".into(),
            Ok(_) => unreachable!("ousterhout is multi-task"),
        },
        "-".into(),
    ]);

    // 2. Kernel trace buffer: complete but per-reference.
    let cfg = SystemConfig::kernel_trace_buffer(workload, cache).with_scale(scale);
    let buffer = TrialRunner::new()
        .run(&cfg, base, trial)
        .expect("feasible config")
        .result;
    t.row(vec![
        "Kernel trace buffer [Mogul91]".into(),
        "all tasks + kernel".into(),
        format!("{:.0}", buffer.total_misses()),
        format!("{:.1}x", buffer.slowdown()),
    ]);

    // 3. Tapeworm: complete and per-miss.
    let cfg = SystemConfig::cache(workload, cache).with_scale(scale);
    let tapeworm = TrialRunner::new()
        .run(&cfg, base, trial)
        .expect("feasible config")
        .result;
    t.row(vec![
        "Tapeworm II (this paper)".into(),
        "all tasks + kernel".into(),
        format!("{:.0}", tapeworm.total_misses()),
        format!("{:.1}x", tapeworm.slowdown()),
    ]);
    println!("{t}");

    println!("Per-component view (both complete tools):");
    let mut t = Table::new(
        ["Component", "Trace buffer", "Tapeworm"]
            .map(String::from)
            .to_vec(),
    );
    t.numeric();
    for c in Component::ALL {
        t.row(vec![
            c.to_string(),
            format!("{:.0}", buffer.misses(c)),
            format!("{:.0}", tapeworm.misses(c)),
        ]);
    }
    println!("{t}");
    println!(
        "Both see the whole system; only the trap-driven tool's cost scales with\n\
         misses instead of references — {:.0}x cheaper here.",
        buffer.slowdown() / tapeworm.slowdown().max(0.01)
    );
}
