//! Integration tests of the full trial engine: these exercise the
//! machine + OS + workload + Tapeworm assembly end to end and pin the
//! behaviours the paper's experiments rely on.

use tapeworm_core::{CacheConfig, Indexing, TlbSimConfig};
use tapeworm_machine::Component;
use tapeworm_sim::{AllocPolicy, ComponentSet, SimModel, SystemConfig, TrialRun, TrialRunner};
use tapeworm_stats::SeedSeq;
use tapeworm_workload::Workload;

/// Runs one trial on a fresh [`TrialRunner`].
fn one_trial(cfg: &SystemConfig, base: SeedSeq, trial: SeedSeq) -> TrialRun {
    TrialRunner::new().run(cfg, base, trial).expect("feasible")
}

const SCALE: u64 = 2000; // fast tests: ~0.7M instructions for mpeg_play

fn cache(bytes: u64) -> CacheConfig {
    CacheConfig::new(bytes, 16, 1).unwrap()
}

fn cfg(workload: Workload, bytes: u64) -> SystemConfig {
    SystemConfig::cache(workload, cache(bytes)).with_scale(SCALE)
}

#[test]
fn trial_executes_the_instruction_budget() {
    let c = cfg(Workload::MpegPlay, 4096);
    let r = one_trial(&c, SeedSeq::new(1), SeedSeq::new(10)).result;
    let expected = Workload::MpegPlay.spec().scaled_instructions(SCALE);
    // Interrupt handlers add a little work on top of the budget.
    assert!(
        r.instructions >= expected,
        "{} < {expected}",
        r.instructions
    );
    assert!(
        (r.instructions as f64) < expected as f64 * 1.3,
        "interrupt overhead exploded: {}",
        r.instructions
    );
    assert!(r.total_misses() > 0.0);
    assert!(r.clock_interrupts > 0);
    assert!(r.page_faults > 0);
    assert_eq!(r.tasks_created, 1);
}

#[test]
fn component_fractions_track_table4() {
    // mpeg_play: kernel .241 / bsd .273 / x .040 / user .446. Miss
    // accounting is per component, so each measured component must see
    // misses; the instruction split is enforced by the WRR weights.
    let c = cfg(Workload::MpegPlay, 1024);
    let r = one_trial(&c, SeedSeq::new(2), SeedSeq::new(3)).result;
    for comp in Component::ALL {
        assert!(r.misses(comp) > 0.0, "{comp} saw no misses");
    }
}

#[test]
fn miss_ratio_decreases_with_cache_size() {
    // The Figure 2 axis: user-only mpeg_play. Virtual indexing removes
    // page-allocation conflict noise so the curve is the clean
    // footprint knee; Table 9 shows the physically-indexed version of
    // this curve is noisy even in the paper.
    let seeds = (SeedSeq::new(5), SeedSeq::new(6));
    let mut prev = f64::INFINITY;
    for kb in [1u64, 4, 16, 64, 128] {
        let vcache = CacheConfig::new(kb * 1024, 16, 1)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let c = SystemConfig::cache(Workload::MpegPlay, vcache)
            .with_scale(500)
            .with_components(ComponentSet::user_only());
        let r = one_trial(&c, seeds.0, seeds.1).result;
        let ratio = r.total_miss_ratio();
        assert!(
            ratio <= prev * 1.05 + 1e-6,
            "{kb}K: ratio {ratio} rose above {prev}"
        );
        prev = ratio;
    }
    // Once the 32K footprint fits, only cold misses remain.
    assert!(prev < 0.005, "128K ratio still {prev}");
}

#[test]
fn user_only_measurement_excludes_system_components() {
    let c = cfg(Workload::MpegPlay, 4096).with_components(ComponentSet::user_only());
    let r = one_trial(&c, SeedSeq::new(7), SeedSeq::new(8)).result;
    assert!(r.misses(Component::User) > 0.0);
    assert_eq!(r.misses(Component::Kernel), 0.0);
    assert_eq!(r.misses(Component::BsdServer), 0.0);
    assert_eq!(r.misses(Component::XServer), 0.0);
}

#[test]
fn interference_all_activity_exceeds_sum_of_parts() {
    // Table 6's key structural property.
    let base = SeedSeq::new(11);
    let trial = SeedSeq::new(12);
    let run = |set: ComponentSet| {
        let c = cfg(Workload::MpegPlay, 4096).with_components(set);
        one_trial(&c, base, trial).result.total_misses()
    };
    let user = run(ComponentSet::user_only());
    let servers = run(ComponentSet::servers_only());
    let kernel = run(ComponentSet::kernel_only());
    let all = run(ComponentSet::all());
    assert!(
        all > user + servers + kernel,
        "interference must be positive: all={all}, parts={}",
        user + servers + kernel
    );
}

#[test]
fn virtual_indexing_without_sampling_is_deterministic() {
    // Table 10: removing page-allocation and sampling variance makes
    // trials identical even with different trial seeds.
    let base = SeedSeq::new(21);
    let vcache = CacheConfig::new(16 * 1024, 16, 1)
        .unwrap()
        .with_indexing(Indexing::Virtual);
    let c = SystemConfig::cache(Workload::Espresso, vcache).with_scale(SCALE);
    let a = one_trial(&c, base, SeedSeq::new(100)).result;
    let b = one_trial(&c, base, SeedSeq::new(200)).result;
    assert_eq!(a.total_misses(), b.total_misses());
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn physical_indexing_varies_with_page_allocation() {
    // Table 9: same workload, same base seed, different trial seeds ->
    // different physically-indexed miss counts (random frame
    // allocation), for caches larger than a page.
    let base = SeedSeq::new(22);
    let c = cfg(Workload::MpegPlay, 32 * 1024);
    let a = one_trial(&c, base, SeedSeq::new(1)).result;
    let b = one_trial(&c, base, SeedSeq::new(2)).result;
    assert_ne!(a.total_misses(), b.total_misses());
}

#[test]
fn page_sized_physical_cache_has_no_allocation_variance() {
    // Table 9's 4K row: "any page allocation will appear the same
    // because all pages overlap in caches that are 4K-bytes or
    // smaller".
    let base = SeedSeq::new(23);
    let c = cfg(Workload::Espresso, 4096);
    let a = one_trial(&c, base, SeedSeq::new(1)).result;
    let b = one_trial(&c, base, SeedSeq::new(2)).result;
    assert_eq!(a.total_misses(), b.total_misses());
}

#[test]
fn sampling_reduces_slowdown_roughly_proportionally() {
    let base = SeedSeq::new(24);
    let full = one_trial(&cfg(Workload::MpegPlay, 1024), base, SeedSeq::new(5)).result;
    let sampled = cfg(Workload::MpegPlay, 1024).with_sampling(8);
    let eighth = one_trial(&sampled, base, SeedSeq::new(5)).result;
    assert!(eighth.slowdown() < full.slowdown() / 4.0);
    // The expanded estimate stays in the neighbourhood of the full
    // count (sampling is unbiased, if noisy).
    let ratio = eighth.total_misses() / full.total_misses();
    assert!((0.5..2.0).contains(&ratio), "estimate off by {ratio}");
}

#[test]
fn multitask_workloads_fork_and_exit_the_whole_tree() {
    let c = cfg(Workload::Ousterhout, 4096);
    let r = one_trial(&c, SeedSeq::new(31), SeedSeq::new(32)).result;
    assert_eq!(r.tasks_created, 15); // Table 4's task count
    assert!(r.misses(Component::User) > 0.0);
}

#[test]
fn sequential_allocation_is_deterministic_even_physically_indexed() {
    let base = SeedSeq::new(41);
    let c = cfg(Workload::MpegPlay, 32 * 1024).with_alloc(AllocPolicy::Sequential);
    let a = one_trial(&c, base, SeedSeq::new(1)).result;
    let b = one_trial(&c, base, SeedSeq::new(2)).result;
    assert_eq!(a.total_misses(), b.total_misses());
}

#[test]
fn tlb_simulation_counts_tlb_misses() {
    let c = SystemConfig::tlb(Workload::MpegPlay, TlbSimConfig::r3000()).with_scale(SCALE);
    let r = one_trial(&c, SeedSeq::new(51), SeedSeq::new(52)).result;
    assert!(r.total_misses() > 0.0);
    // TLB misses are far rarer than 1K-cache misses.
    assert!(
        r.total_miss_ratio() < 0.05,
        "ratio {}",
        r.total_miss_ratio()
    );
}

#[test]
fn masked_traps_are_counted() {
    // The clock-interrupt handler's masked prefix loses some kernel
    // misses; the bias counter must see them.
    let c = cfg(Workload::Ousterhout, 1024);
    let r = one_trial(&c, SeedSeq::new(61), SeedSeq::new(62)).result;
    assert!(r.masked_misses > 0, "expected masked kernel misses");
    // But the bias is small relative to total misses (§4.2).
    assert!((r.masked_misses as f64) < 0.05 * r.total_misses());
}

#[test]
fn unoptimized_handler_slows_simulation_down() {
    let base = SeedSeq::new(71);
    let trial = SeedSeq::new(72);
    let mut slow = cfg(Workload::MpegPlay, 4096);
    slow.cost = tapeworm_sim::CostKind::UnoptimizedC;
    let fast = one_trial(&cfg(Workload::MpegPlay, 4096), base, trial).result;
    let slowed = one_trial(&slow, base, trial).result;
    assert!(slowed.slowdown() > 5.0 * fast.slowdown());
}

#[test]
fn model_selection_is_visible_in_config() {
    let c = SystemConfig::tlb(Workload::Xlisp, TlbSimConfig::r3000());
    assert!(matches!(c.model, SimModel::Tlb(_)));
}

#[test]
fn kernel_trace_buffer_sees_all_components_at_trace_cost() {
    let c = SystemConfig::kernel_trace_buffer(Workload::Ousterhout, cache(4096)).with_scale(SCALE);
    let buffer = one_trial(&c, SeedSeq::new(95), SeedSeq::new(96)).result;
    // Complete coverage, like Tapeworm:
    assert!(buffer.misses(Component::Kernel) > 0.0);
    assert!(buffer.misses(Component::BsdServer) > 0.0);
    assert!(buffer.misses(Component::User) > 0.0);
    // But the cost is per reference: the overhead exceeds
    // annotate+simulate cycles for every instruction executed.
    assert!(buffer.overhead_cycles > buffer.instructions * (12 + 49));
    // Tapeworm on the same workload is cheaper.
    let c = cfg(Workload::Ousterhout, 4096);
    let tw = one_trial(&c, SeedSeq::new(95), SeedSeq::new(96)).result;
    assert!(tw.slowdown() < buffer.slowdown());
}

#[test]
fn split_cache_counts_data_misses_only_on_allocating_hosts() {
    let icache = cache(4096);
    let dcache = cache(4096);
    // Faithful host: allocate-on-write.
    let good = SystemConfig::split(Workload::MpegPlay, icache, dcache)
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let r_good = one_trial(&good, SeedSeq::new(91), SeedSeq::new(92)).result;
    let d_good = r_good.total_data_misses().expect("split run reports D");
    assert!(d_good > 0.0);
    assert!(r_good.total_misses() > 0.0, "I-side still counted");
    assert_eq!(r_good.write_traps_destroyed, 0);

    // Broken host: no-allocate-on-write loses store-side misses.
    let mut bad = good.clone();
    bad.write_policy = tapeworm_mem::WritePolicy::NoAllocateOnWrite;
    let r_bad = one_trial(&bad, SeedSeq::new(91), SeedSeq::new(92)).result;
    let d_bad = r_bad.total_data_misses().expect("split run reports D");
    assert!(r_bad.write_traps_destroyed > 0, "hazard must be observed");
    assert!(d_bad < d_good, "undercount expected: {d_bad} !< {d_good}");
    // Instruction-side counts are unaffected by the write policy.
    assert_eq!(r_bad.total_misses(), r_good.total_misses());
}

#[test]
fn two_level_simulation_runs_and_l2_absorbs_l1_misses() {
    let l1 = cache(1024);
    let l2 = CacheConfig::new(64 * 1024, 16, 2).unwrap();
    let c = SystemConfig::two_level(Workload::MpegPlay, l1, l2)
        .with_components(ComponentSet::user_only())
        .with_scale(SCALE);
    let r = one_trial(&c, SeedSeq::new(81), SeedSeq::new(82)).result;
    let l1_misses = r.total_misses();
    let l2_misses = r.total_l2_misses().expect("two-level run reports L2");
    assert!(l1_misses > 0.0);
    assert!(
        l2_misses < 0.6 * l1_misses,
        "a 64K L2 must absorb most 1K-L1 misses: {l2_misses} vs {l1_misses}"
    );
    // Single-level runs report no L2 data.
    let c = cfg(Workload::MpegPlay, 1024).with_components(ComponentSet::user_only());
    let single = one_trial(&c, SeedSeq::new(81), SeedSeq::new(82)).result;
    assert!(single.total_l2_misses().is_none());
    // L1 miss counts agree between the two models (same L1, same
    // stream): the trap pattern is identical.
    assert!(
        (single.total_misses() - l1_misses).abs() / l1_misses < 0.02,
        "L1 misses should match: {} vs {l1_misses}",
        single.total_misses()
    );
}
