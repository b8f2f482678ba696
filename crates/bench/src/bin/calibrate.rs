//! Calibration report: per-component dedicated miss ratios at 4K
//! (Table 6 targets) and the mpeg_play user miss-ratio curve
//! (Figure 2 targets).
//!
//! Not a paper artifact itself — this is the tool used to tune the
//! synthetic workload parameters and to audit how close the model
//! sits to the paper's measurements.

use tapeworm_bench::{base_seed, dm4, scale};
use tapeworm_machine::Component;
use tapeworm_sim::{ComponentSet, SystemConfig, TrialRunner};
use tapeworm_stats::table::Table;
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

/// Table 6 targets: (workload, user, servers, kernel) miss ratios per
/// total instruction in a dedicated 4K cache.
const TARGETS: [(Workload, f64, f64, f64); 8] = [
    (Workload::Eqntott, 0.000, 0.002, 0.002),
    (Workload::Espresso, 0.003, 0.004, 0.004),
    (Workload::JpegPlay, 0.002, 0.008, 0.005),
    (Workload::Kenbus, 0.043, 0.068, 0.073),
    (Workload::MpegPlay, 0.027, 0.024, 0.014),
    (Workload::Ousterhout, 0.003, 0.033, 0.038),
    (Workload::Sdet, 0.024, 0.031, 0.022),
    (Workload::Xlisp, 0.064, 0.004, 0.002),
];

fn main() {
    let base = base_seed();
    let trial = SeedSeq::new(7);
    let scale = scale();

    let mut t = Table::new(
        [
            "Workload", "user", "(paper)", "servers", "(paper)", "kernel", "(paper)",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.numeric().title(format!(
        "Calibration: dedicated-cache miss ratios, 4K DM 4-word lines (scale 1/{scale})"
    ));
    for (w, pu, ps, pk) in TARGETS {
        let run = |set: ComponentSet| {
            let cfg = SystemConfig::cache(w, dm4(4))
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
        t.row(vec![
            w.to_string(),
            format!("{:.4}", user.total_miss_ratio()),
            format!("({pu:.3})"),
            format!("{:.4}", servers.total_miss_ratio()),
            format!("({ps:.3})"),
            format!("{:.4}", kernel.total_miss_ratio()),
            format!("({pk:.3})"),
        ]);
    }
    println!("{t}");

    // Figure 2 targets: mpeg_play user-only miss ratio per *user*
    // instruction.
    const FIG2: [(u64, f64); 8] = [
        (1, 0.118),
        (2, 0.097),
        (4, 0.064),
        (8, 0.023),
        (16, 0.017),
        (32, 0.002),
        (64, 0.002),
        (128, 0.000),
    ];
    let mut t = Table::new(
        ["Cache", "miss/user-instr", "(paper)"]
            .map(String::from)
            .to_vec(),
    );
    t.numeric()
        .title("Calibration: mpeg_play user-only miss ratios vs Figure 2");
    let frac_user = Workload::MpegPlay.spec().frac_user;
    for (kb, paper) in FIG2 {
        let cfg = SystemConfig::cache(Workload::MpegPlay, dm4(kb))
            .with_components(ComponentSet::user_only())
            .with_scale(scale);
        let r = TrialRunner::new()
            .run(&cfg, base, trial)
            .expect("feasible config")
            .result;
        let per_user = r.misses(Component::User) / (r.instructions as f64 * frac_user);
        t.row(vec![
            format!("{kb}K"),
            format!("{per_user:.4}"),
            format!("({paper:.3})"),
        ]);
    }
    println!("{t}");
}
