//! Multi-task and OS completeness: the reason Tapeworm exists.
//!
//! Reproduces the Table 6 methodology on the `ousterhout` suite: run
//! each workload component in a dedicated simulated cache, then all
//! components in a shared cache, and observe that (a) the system
//! components dominate the misses, and (b) sharing adds interference
//! misses a user-level-only tool would never see.
//!
//! Run with: `cargo run --release --example multitask_interference`

use tapeworm::core::CacheConfig;
use tapeworm::machine::Component;
use tapeworm::sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm::stats::SeedSeq;
use tapeworm::trace::Pixie;
use tapeworm::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = CacheConfig::new(4 * 1024, 16, 1)?;
    let base = SeedSeq::new(1994);
    let trial = SeedSeq::new(3);
    let workload = Workload::Ousterhout;

    let run = |set: ComponentSet| {
        let cfg = SystemConfig::cache(workload, cache)
            .with_components(set)
            .with_scale(500);
        TrialRunner::new()
            .run(&cfg, base, trial)
            .expect("feasible config")
            .result
    };

    println!("ousterhout (15 user tasks), 4K direct-mapped I-cache\n");
    let user = run(ComponentSet::user_only());
    let servers = run(ComponentSet::servers_only());
    let kernel = run(ComponentSet::kernel_only());
    let all = run(ComponentSet::all());

    println!("dedicated caches:");
    println!("  user tasks : {:>9.0} misses", user.total_misses());
    println!("  servers    : {:>9.0} misses", servers.total_misses());
    println!("  kernel     : {:>9.0} misses", kernel.total_misses());
    let parts = user.total_misses() + servers.total_misses() + kernel.total_misses();
    println!("shared cache:");
    println!("  all activity: {:>8.0} misses", all.total_misses());
    println!("  interference: {:>8.0} misses", all.total_misses() - parts);

    let user_share = user.total_misses() / all.total_misses();
    println!(
        "\nA user-level-only tool sees {:.0}% of this workload's misses.",
        user_share * 100.0
    );
    println!(
        "Kernel+servers contribute {:.0}%, interference {:.0}%.",
        (servers.total_misses() + kernel.total_misses()) / all.total_misses() * 100.0,
        (all.total_misses() - parts) / all.total_misses() * 100.0
    );

    // And indeed, the era's standard tool cannot even trace this
    // workload:
    match Pixie::annotate(workload, 1000, base) {
        Err(e) => println!("\nPixie says: {e}"),
        Ok(_) => unreachable!("ousterhout is multi-task"),
    }

    // Per-component attribution inside the shared-cache run:
    println!("\nshared-cache misses by component:");
    for c in Component::ALL {
        println!("  {:<12} {:>9.0}", c.to_string(), all.misses(c));
    }
    Ok(())
}
