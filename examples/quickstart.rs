//! Quickstart: the trap-driven simulation idea in one file.
//!
//! Part 1 drives the Tapeworm primitives by hand, exactly as the
//! paper's Figure 1 shows the miss handler working. Part 2 runs a
//! complete system trial through the experiment engine.
//!
//! Run with: `cargo run --release --example quickstart`

use tapeworm::core::{CacheConfig, Tapeworm};
use tapeworm::machine::Component;
use tapeworm::mem::{Pfn, PhysAddr, TrapMap, VirtAddr};
use tapeworm::os::Tid;
use tapeworm::sim::{SystemConfig, TrialRunner};
use tapeworm::stats::SeedSeq;
use tapeworm::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Part 1: the mechanism, by hand.
    // ------------------------------------------------------------------
    // A 1K direct-mapped simulated cache with 4-word (16-byte) lines,
    // over a machine with 1 MiB of trap-capable memory.
    let cache = CacheConfig::new(1024, 16, 1)?;
    let mut tapeworm = Tapeworm::new(cache, 4096, SeedSeq::new(1));
    let mut traps = TrapMap::new(1 << 20, 16);
    let tid = Tid::new(1);

    // The VM system registers a freshly mapped page: every line of the
    // page is trapped, meaning "not in the simulated cache".
    tapeworm.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
    println!("after register: {} lines trapped", traps.count());

    // The task now "executes". Hits run at memory speed (no trap);
    // misses vector to the handler which clears the trap, inserts the
    // line and re-traps the displaced victim.
    let mut handler_cycles = 0;
    for step in 0..20_000u64 {
        // A loop over 2 KiB of code: twice the simulated cache.
        let va = VirtAddr::new((step * 4) % 2048);
        let pa = PhysAddr::new(va.raw()); // identity-mapped for the demo
        if traps.is_trapped(pa) {
            handler_cycles += tapeworm.handle_miss(&mut traps, Component::User, tid, va, pa);
        }
    }
    println!(
        "misses: {} (cold {} lines + steady-state conflicts), handler overhead {} cycles",
        tapeworm.stats().raw_total(),
        2048 / 16,
        handler_cycles
    );

    // ------------------------------------------------------------------
    // Part 2: the same idea at system scale.
    // ------------------------------------------------------------------
    // Boot the machine + microkernel, run the espresso workload with
    // kernel, servers and user task all registered, and report what the
    // paper reports: misses per component, and Slowdown.
    let cache = CacheConfig::new(4 * 1024, 16, 1)?;
    let cfg = SystemConfig::cache(Workload::Espresso, cache).with_scale(500);
    let result = TrialRunner::new()
        .run(&cfg, SeedSeq::new(1994), SeedSeq::new(7))?
        .result;

    println!("\nespresso, 4K direct-mapped I-cache, all activity:");
    for component in Component::ALL {
        println!(
            "  {:<12} {:>9.0} misses (ratio {:.4})",
            component.to_string(),
            result.misses(component),
            result.miss_ratio(component),
        );
    }
    println!(
        "  total ratio {:.4}, slowdown {:.2}x, {} clock interrupts, {} page faults",
        result.total_miss_ratio(),
        result.slowdown(),
        result.clock_interrupts,
        result.page_faults,
    );
    Ok(())
}
