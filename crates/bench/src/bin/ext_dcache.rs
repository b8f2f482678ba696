//! Extension: data-cache simulation (the paper's §5 future work),
//! including the §4.4 failure mode that blocked it on the DECstation
//! 5000/200.
//!
//! On an allocate-on-write host, stores to trapped lines raise ECC
//! traps and data-cache simulation is faithful. On the 5000/200's
//! no-allocate-on-write host, every such store silently destroys the
//! trap — the handler never runs, the simulated data cache diverges,
//! and the miss count is an undercount by roughly the destroyed-trap
//! tally.

use tapeworm_bench::{base_seed, dm4, scale};
use tapeworm_mem::WritePolicy;
use tapeworm_sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(14);
    let scale = scale();
    let icache = dm4(4);

    let mut t = Table::new(
        [
            "D-cache",
            "Host policy",
            "I-misses",
            "D-misses",
            "Traps destroyed",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Split I/D simulation: mpeg_play user task, 4K DM I-cache (scale 1/{scale})"
    ));

    for dcache_kb in [4u64, 16, 64] {
        let dcache = dm4(dcache_kb);
        for policy in [WritePolicy::AllocateOnWrite, WritePolicy::NoAllocateOnWrite] {
            let mut cfg = SystemConfig::split(Workload::MpegPlay, icache, dcache)
                .with_components(ComponentSet::user_only())
                .with_scale(scale);
            cfg.write_policy = policy;
            let r = TrialRunner::new()
                .run(&cfg, base, trial)
                .expect("feasible config")
                .result;
            t.row(vec![
                format!("{dcache_kb}K"),
                match policy {
                    WritePolicy::AllocateOnWrite => "allocate (CM-5-like)".into(),
                    WritePolicy::NoAllocateOnWrite => "no-allocate (DS5000/200)".into(),
                },
                format!("{:.0}", r.total_misses()),
                format!("{:.0}", r.total_data_misses().expect("split run")),
                r.write_traps_destroyed.to_string(),
            ]);
        }
    }
    println!("{t}");
    println!(
        "Same workload, same caches: the no-allocate host loses every store-side\n\
         miss (traps destroyed) and undercounts the data cache — why the paper's\n\
         D-cache attempt failed on the 5000/200 but worked on allocate-on-write\n\
         machines like the CM-5 [Reinhardt93]."
    );
}
