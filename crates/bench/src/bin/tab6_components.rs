//! Table 6: miss count and miss ratio contributions for different
//! workload components.
//!
//! Each workload runs four times: user-only, servers-only,
//! kernel-only (each in a dedicated simulated cache) and all-activity
//! (shared cache). Interference = all − (user + servers + kernel).
//! For single-task workloads, the "From Traces" column validates the
//! user component against Pixie + Cache2000 on the identical stream.

use tapeworm_bench::{base_seed, dm4, paper_millions, scale};
use tapeworm_sim::compare::run_trace_driven;
use tapeworm_sim::{ComponentSet, SystemConfig, TrialResult, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_trace::TracePolicy;
use tapeworm_workload::Workload;

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(6);
    let scale = scale();
    let cache = dm4(4);

    let mut t = Table::new(
        [
            "Workload",
            "From Traces",
            "User Tasks",
            "Servers",
            "Kernel",
            "All Activity",
            "Interference",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Table 6: component miss contributions, 4K DM 4-word lines\n\
         (misses x10^6 at paper scale, miss ratio per total instruction; scale 1/{scale})"
    ));

    let mut order = Workload::ALL;
    order.sort_by_key(|w| w.name());
    for w in order {
        let run = |set: ComponentSet| -> TrialResult {
            let cfg = SystemConfig::cache(w, cache)
                .with_components(set)
                .with_scale(scale);
            TrialRunner::new()
                .run(&cfg, base, trial)
                .expect("feasible config")
                .result
        };
        let user = run(ComponentSet::user_only());
        let servers = run(ComponentSet::servers_only());
        let kernel = run(ComponentSet::kernel_only());
        let all = run(ComponentSet::all());
        let interference = all.total_misses()
            - user.total_misses()
            - servers.total_misses()
            - kernel.total_misses();
        let instr = all.instructions as f64;

        let from_traces = {
            let cfg = SystemConfig::cache(w, cache).with_scale(scale);
            match run_trace_driven(&cfg, cache, TracePolicy::Fifo, base) {
                Ok(r) => {
                    let ratio = r.misses as f64 / instr;
                    format!("{:.2} ({ratio:.3})", paper_millions(r.misses as f64, scale))
                }
                Err(_) => String::new(), // multi-task: no trace possible
            }
        };
        let cell = |misses: f64| {
            format!(
                "{:.2} ({:.3})",
                paper_millions(misses, scale),
                misses / instr
            )
        };
        t.row(vec![
            w.to_string(),
            from_traces,
            cell(user.total_misses()),
            cell(servers.total_misses()),
            cell(kernel.total_misses()),
            cell(all.total_misses()),
            cell(interference),
        ]);
    }
    println!("{t}");
}
