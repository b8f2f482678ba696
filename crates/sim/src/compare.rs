//! Trace-driven comparison runs (Pixie + Cache2000).
//!
//! Figure 2 compares Tapeworm slowdowns against the Pixie + Cache2000
//! pipeline on the *same* workload, with both slowdowns computed over
//! the workload's total uninstrumented run time. Table 6's "From
//! Traces" column validates Tapeworm's user-component miss counts
//! against the trace-driven result on the identical reference stream.

use tapeworm_core::CacheConfig;
use tapeworm_stats::SeedSeq;
use tapeworm_trace::{Cache2000, Cache2000Config, Pixie, PixieError, TracePolicy};

use crate::config::SystemConfig;

/// Per-address cycles spent writing/reading the trace between the
/// annotated workload and the simulator (buffer management and I/O) —
/// overhead the combined Pixie + Cache2000 wall-clock slowdown pays on
/// top of the ~53-cycle search cost of Table 5.
pub const TRACE_IO_CYCLES_PER_ADDRESS: u64 = 35;

/// Result of one trace-driven simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRunResult {
    /// Addresses processed (equals traced user instructions).
    pub references: u64,
    /// Misses observed.
    pub misses: u64,
    /// Miss ratio over traced references.
    pub miss_ratio: f64,
    /// Simulation + trace-generation overhead in cycles.
    pub overhead_cycles: u64,
    /// The paper's slowdown: overhead over the *whole workload's*
    /// uninstrumented run time (not just the traced task's).
    pub slowdown: f64,
}

/// Runs Pixie + Cache2000 for a workload's user task on the given
/// cache geometry, matching a [`SystemConfig`]'s scale and CPI so the
/// slowdowns are comparable with a [`TrialRunner`](crate::TrialRunner) trial's.
///
/// The trace-driven cache uses FIFO replacement to match the
/// trap-driven simulator exactly (for validation); pass
/// `policy = TracePolicy::Lru` for the baseline's native behaviour.
///
/// # Errors
///
/// Propagates [`PixieError`] for multi-task workloads — the tool's
/// fundamental limitation.
pub fn run_trace_driven(
    cfg: &SystemConfig,
    cache: CacheConfig,
    policy: TracePolicy,
    base: SeedSeq,
) -> Result<TraceRunResult, PixieError> {
    let spec = cfg.workload.spec();
    let total_instructions = spec.scaled_instructions(cfg.scale);
    let user_instructions = (total_instructions as f64 * spec.frac_user).round() as u64;

    let trace = Pixie::annotate(cfg.workload, user_instructions, base)?;
    let mut c2k_cfg = Cache2000Config::with_geometry(
        cache.size_bytes(),
        cache.line_bytes(),
        cache.associativity(),
    );
    c2k_cfg.policy = policy;
    let mut sim = Cache2000::new(c2k_cfg);
    sim.run(trace.iter());

    let overhead = sim.overhead_cycles() + sim.references() * TRACE_IO_CYCLES_PER_ADDRESS;
    // Normal workload run time covers ALL components at the base CPI.
    let workload_cycles = (total_instructions as f64 * cfg.base_cpi()).round() as u64;
    Ok(TraceRunResult {
        references: sim.references(),
        misses: sim.misses(),
        miss_ratio: sim.miss_ratio(),
        overhead_cycles: overhead,
        slowdown: overhead as f64 / workload_cycles as f64,
    })
}

/// The §4.1 break-even analysis: cycles consumed by each approach for
/// a hypothetical reference count and miss ratio. Returns
/// `(trap_cycles, trace_cycles)`.
///
/// With a 246-cycle handler versus ~53 cycles per trace address, the
/// approaches break even near 4–5 hits per miss; below that miss
/// ratio, trap-driven wins.
pub fn breakeven_cycles(
    references: u64,
    miss_ratio: f64,
    trap_cycles_per_miss: u64,
    trace_cycles_per_address: u64,
) -> (f64, f64) {
    let trap = references as f64 * miss_ratio * trap_cycles_per_miss as f64;
    let trace = references as f64 * trace_cycles_per_address as f64;
    (trap, trace)
}

/// The miss ratio at which trap- and trace-driven costs are equal.
pub fn breakeven_miss_ratio(trap_cycles_per_miss: u64, trace_cycles_per_address: u64) -> f64 {
    trace_cycles_per_address as f64 / trap_cycles_per_miss as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_machine::Component;
    use tapeworm_workload::Workload;

    #[test]
    fn breakeven_is_about_four_hits_per_miss() {
        // Table 5: 246 cycles per miss vs 53 per address.
        let r = breakeven_miss_ratio(246, 53);
        assert!((0.18..0.25).contains(&r), "break-even at {r}");
        let (trap, trace) = breakeven_cycles(1_000_000, r, 246, 53);
        assert!((trap - trace).abs() / trace < 1e-9);
        // Below break-even, trap-driven is cheaper.
        let (trap, trace) = breakeven_cycles(1_000_000, 0.05, 246, 53);
        assert!(trap < trace);
    }

    #[test]
    fn trace_driven_runs_single_task_workloads() {
        let cache = CacheConfig::new(4 * 1024, 16, 1).unwrap();
        let cfg = SystemConfig::cache(Workload::Espresso, cache).with_scale(2000);
        let r = run_trace_driven(&cfg, cache, TracePolicy::Fifo, SeedSeq::new(1)).unwrap();
        assert!(r.references > 0);
        assert!(r.slowdown > 0.0);
        // Slowdown must exceed what the user fraction alone implies for
        // the compute cost, because every traced address pays I/O too.
        assert!(r.overhead_cycles > r.references * 49);
    }

    #[test]
    fn trace_driven_refuses_multitask() {
        let cache = CacheConfig::new(4 * 1024, 16, 1).unwrap();
        let cfg = SystemConfig::cache(Workload::Sdet, cache).with_scale(2000);
        assert!(run_trace_driven(&cfg, cache, TracePolicy::Lru, SeedSeq::new(1)).is_err());
    }

    #[test]
    fn trace_slowdown_roughly_flat_across_sizes() {
        // The Cache2000 slowdown varies only mildly with cache size
        // (Figure 2's right-hand curve).
        let cfg_for = |bytes: u64| {
            let cache = CacheConfig::new(bytes, 16, 1).unwrap();
            let cfg = SystemConfig::cache(Workload::MpegPlay, cache).with_scale(2000);
            run_trace_driven(&cfg, cache, TracePolicy::Lru, SeedSeq::new(3))
                .unwrap()
                .slowdown
        };
        let small = cfg_for(1024);
        let large = cfg_for(256 * 1024);
        assert!(small > large, "misses cost extra: {small} vs {large}");
        assert!(small / large < 2.0, "but the effect is mild");
    }

    #[test]
    fn component_is_reexported_sanity() {
        // compile-time use of Component to keep the dev-dep graph
        // honest in this module's tests.
        assert_eq!(Component::ALL.len(), 4);
    }
}
