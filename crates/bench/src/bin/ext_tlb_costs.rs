//! Extension: software-managed TLB design tradeoffs, in the spirit of
//! the companion study the paper's Tapeworm line was built for
//! (\[Nagle93\]: "Design tradeoffs for software-managed TLBs").
//!
//! Sweeps TLB sizes over the OS-intensive workloads, splits misses by
//! component, and weights them with the Nagle-style per-class handler
//! costs (fast user refill vs. slow kernel path) to show where the
//! cycles actually go.

use tapeworm_bench::{base_seed, scale};
use tapeworm_core::TlbSimConfig;
use tapeworm_machine::Component;
use tapeworm_mem::PageSize;
use tapeworm_sim::{SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(19);
    let scale = scale();

    for workload in [Workload::Ousterhout, Workload::Kenbus] {
        let mut t = Table::new(
            [
                "TLB entries",
                "user misses",
                "kernel misses",
                "server misses",
                "handler cycles/1k instr",
            ]
            .map(String::from)
            .to_vec(),
        );
        t.numeric().title(format!(
            "{workload}: software-managed TLB sweep (scale 1/{scale})"
        ));
        for entries in [32u32, 64, 128, 256] {
            let tlb = TlbSimConfig {
                entries,
                associativity: entries,
                page_size: PageSize::DEFAULT,
                ..TlbSimConfig::r3000()
            };
            let cfg = SystemConfig::tlb(workload, tlb).with_scale(scale);
            let r = TrialRunner::new()
                .run(&cfg, base, trial)
                .expect("feasible config")
                .result;
            t.row(vec![
                entries.to_string(),
                format!("{:.0}", r.misses(Component::User)),
                format!("{:.0}", r.misses(Component::Kernel)),
                format!(
                    "{:.0}",
                    r.misses(Component::BsdServer) + r.misses(Component::XServer)
                ),
                format!(
                    "{:.1}",
                    1000.0 * r.overhead_cycles as f64 / r.instructions as f64
                ),
            ]);
        }
        println!("{t}");
    }
    println!(
        "Kernel and server mappings dominate TLB pressure in OS-heavy workloads,\n\
         and kernel misses cost ~2x the fast user refill — the cycle budget the\n\
         Nagle93 companion study optimizes. All measured with page-valid-bit\n\
         traps, no tracing."
    );
}
