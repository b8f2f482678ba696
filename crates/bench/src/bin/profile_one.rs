//! Profiling driver: loops a single gate-matrix config so a sampling
//! profiler (or plain wall-clock A/B with the `TW_FAST` knob) sees one
//! undiluted hot path instead of the blended matrix.
//! Usage: `profile_one [4k|64k|tlb] [reps]`. Prints total simulated
//! instructions so runs are comparable. Not part of the benchmark
//! matrix and writes no artifacts.

use tapeworm_bench::base_seed;
use tapeworm_core::{CacheConfig, TlbSimConfig};
use tapeworm_sim::{run_sweep, ComponentSet, SystemConfig};
use tapeworm_workload::Workload;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "4k".into());
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let dm = |kb: u64| CacheConfig::new(kb * 1024, 16, 1).expect("valid geometry");
    let cfg = match which.as_str() {
        "4k" => SystemConfig::cache(Workload::MpegPlay, dm(4))
            .with_components(ComponentSet::user_only())
            .with_scale(200),
        "64k" => SystemConfig::cache(Workload::MpegPlay, dm(64))
            .with_components(ComponentSet::user_only())
            .with_scale(200),
        _ => SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(200),
    };
    let cfgs = vec![cfg];
    let seed = base_seed();
    let mut total = 0u64;
    for _ in 0..reps {
        let out = run_sweep(&cfgs, 3, seed, 1);
        total += out
            .iter()
            .flat_map(|c| c.results())
            .map(|r| r.instructions)
            .sum::<u64>();
    }
    println!("{total}");
}
