//! TLB simulation with page-valid-bit traps — the first-generation
//! Tapeworm capability carried into Tapeworm II.
//!
//! Sweeps simulated TLB sizes for an OS-intensive workload and then
//! shows variable page sizes (superpages) cutting the miss count, the
//! direction explored by the Talluri & Hill paper published alongside
//! Tapeworm at ASPLOS-VI.
//!
//! Run with: `cargo run --release --example tlb_simulation`

use tapeworm::core::TlbSimConfig;
use tapeworm::mem::PageSize;
use tapeworm::sim::{SystemConfig, TrialRunner};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = SeedSeq::new(1994);
    let trial = SeedSeq::new(5);
    // One runner for every trial: its engine buffers are reused.
    let mut runner = TrialRunner::new();

    println!("ousterhout TLB simulation (fully associative, 4K pages)\n");
    println!(
        "{:>8}  {:>12}  {:>10}",
        "entries", "TLB misses", "per 1K instr"
    );
    for entries in [16u32, 32, 64, 128, 256] {
        let tlb = TlbSimConfig {
            entries,
            associativity: entries,
            page_size: PageSize::DEFAULT,
            miss_cycles: 250,
            kernel_miss_cycles: 550,
        };
        let cfg = SystemConfig::tlb(Workload::Ousterhout, tlb).with_scale(500);
        let r = runner.run(&cfg, base, trial)?.result;
        println!(
            "{:>8}  {:>12.0}  {:>10.3}",
            entries,
            r.total_misses(),
            1000.0 * r.total_miss_ratio()
        );
    }

    println!("\n64-entry TLB with growing (super)page sizes:");
    println!(
        "{:>8}  {:>12}  {:>10}",
        "page", "TLB misses", "per 1K instr"
    );
    for page_kb in [4u64, 8, 16, 64] {
        let tlb = TlbSimConfig {
            entries: 64,
            associativity: 64,
            page_size: PageSize::new(page_kb * 1024)?,
            miss_cycles: 250,
            kernel_miss_cycles: 550,
        };
        let cfg = SystemConfig::tlb(Workload::Ousterhout, tlb).with_scale(500);
        let r = runner.run(&cfg, base, trial)?.result;
        println!(
            "{:>7}K  {:>12.0}  {:>10.3}",
            page_kb,
            r.total_misses(),
            1000.0 * r.total_miss_ratio()
        );
    }
    println!(
        "\nBigger TLBs and bigger pages both cut misses; the trap mechanism is\n\
         the page valid bit either way (paper §3.2, Table 2)."
    );
    Ok(())
}
