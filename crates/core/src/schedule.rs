//! Miss-schedule replay: record a burst's compact outcome once,
//! replay it on recurrence.
//!
//! **The trial engine no longer calls this layer.** Misses are serviced
//! inline by the plain handler inside the engine's trap-service walk;
//! this module, [`crate::Tapeworm::service_burst`] and
//! [`crate::Tapeworm::sched_eligible`] stay as a standalone primitive
//! that the benchmark's `core.service_burst` probe and the
//! `sched-fuzz` signature suite still drive. Trials therefore report
//! the `sched_replays`, `sched_records` and `sched_sig_misses` counters
//! as 0.
//!
//! The deterministic SplitMix64 workloads repeat the same instruction
//! runs thousands of times per trial, so a burst service keeps
//! re-deriving identical miss sequences: same entry address, same
//! remaining words, same trap-bit run, same set contents, same
//! victims. This module caches each serviced burst's outcome keyed by
//! its *entry conditions* and replays it in O(recorded misses) when
//! they recur.
//!
//! # The signature is exact state, not a hash
//!
//! A replay is only honest if the recorded outcome is what stepwise
//! execution would produce *now*. Everything the stepwise burst loop
//! reads is therefore either part of the key or re-verified
//! structurally before a replay:
//!
//! * **Trap bits** enter as the recomputed trapped-granule run
//!   ([`tapeworm_mem::TrapMap::trapped_run`]) clipped by the remaining
//!   words and the live tick budget — the `(k, words)` pair must equal
//!   the record exactly, and budget-truncated bursts are never cached.
//! * **Set state** enters as a verbatim comparison of every way of
//!   every touched set (plus FIFO cursors for associative sets)
//!   against the recorded [`CacheLine`] contents.
//! * **Addresses and ownership** enter through the key itself:
//!   entry virtual address, physical frame, task id, component, and
//!   effective remaining words.
//!
//! Two bursts with differing entry state can therefore never share a
//! signature: a difference either changes the key, changes the
//! recomputed `(k, words)`, or fails the slot comparison — each of
//! which forces a fresh record instead of a replay (the
//! `sched_sig_misses` counter). The hash map underneath is only an
//! index; a hash collision degrades to the same structural comparison.
//!
//! The schedule cache is caller-owned scratch: it never enters trial
//! results, digests, or checkpoints. Replay is pinned to fresh
//! recording by `crates/core/tests/sched_fuzz.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tapeworm_machine::Component;
use tapeworm_mem::{PhysAddr, VirtAddr};
use tapeworm_os::Tid;

use crate::cache::CacheLine;

/// Multiply-xor hasher for the schedule index (the standard SipHash
/// is an order of magnitude slower than the burst it would be
/// indexing). Collisions are harmless: the map value is re-verified
/// structurally before any replay.
#[derive(Debug, Default)]
pub struct SchedHasher(u64);

impl Hasher for SchedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type SchedBuild = BuildHasherDefault<SchedHasher>;

/// A burst's entry conditions, packed into two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SchedKey {
    /// Entry virtual address (word-exact: the first chunk may be
    /// mid-line, which changes its width).
    va: u64,
    /// `eff_rem << 44 | pfn << 20 | tid << 4 | component`.
    packed: u64,
}

impl SchedKey {
    /// Packs the key, or `None` when a field overflows its lane (the
    /// caller then falls back to the stepwise loop).
    #[inline]
    pub(crate) fn pack(
        va: VirtAddr,
        eff_rem: u64,
        pfn: u64,
        tid: Tid,
        component: Component,
    ) -> Option<SchedKey> {
        if eff_rem >= 1 << 20 || pfn >= 1 << 24 {
            return None;
        }
        Some(SchedKey {
            va: va.raw(),
            packed: (eff_rem << 44)
                | (pfn << 20)
                | (u64::from(tid.raw()) << 4)
                | component.index() as u64,
        })
    }
}

/// What a replay must find in one cache slot before it may proceed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotCheck {
    pub(crate) slot: u32,
    pub(crate) line: Option<CacheLine>,
}

/// What a replay must find in one set's FIFO cursor (associative sets
/// only; the direct-mapped cursor never moves).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CursorCheck {
    pub(crate) set: u32,
    pub(crate) cursor: u32,
}

/// The recorded effect of one miss in a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// The line filled a previously empty way.
    Fill,
    /// The line displaced a victim whose page was unregistered: no
    /// trap re-armed.
    Displace,
    /// The line displaced a victim on a registered page: its trap was
    /// re-armed.
    DisplaceRetrap,
    /// Duplicate insertion (aliasing): refresh, no state change.
    Refresh,
}

/// One miss's slot write, replayable without re-deriving the victim.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MissWrite {
    pub(crate) slot: u32,
    pub(crate) kind: WriteKind,
}

/// One cached burst outcome: the `(k, words)` shape plus arena ranges
/// holding its set-state signature and slot writes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SchedEntry {
    pub(crate) k: u32,
    pub(crate) words: u32,
    pub(crate) checks: (u32, u32),
    pub(crate) cursor_checks: (u32, u32),
    pub(crate) writes: (u32, u32),
}

/// Sentinel for an empty way in the per-key entry set.
pub(crate) const NO_ENTRY: u32 = u32::MAX;

/// Ways per schedule key: how many distinct set-state shapes one burst
/// site keeps live, most recent first. Sites cycling through up to
/// this many shapes (pages rotating through shared sets) replay
/// instead of thrashing a single record.
pub(crate) const KEY_WAYS: usize = 16;

/// Schedule cache: the key index, the entry table, and the flat
/// arenas entries point into. Not used by the trial engine (see the
/// module docs); kept for direct [`crate::Tapeworm::service_burst`]
/// callers. Overwritten entries leak their
/// arena ranges until the capacity bound resets the whole store —
/// deterministic, and bounded at a few MiB.
#[derive(Debug, Default)]
pub struct MissSchedule {
    /// [`KEY_WAYS`]-associative per key, most recent first
    /// ([`NO_ENTRY`] = empty way): burst sites whose set state
    /// rotates through a few shapes (pages ping-ponging through the
    /// same sets) keep each schedule live instead of thrashing one.
    pub(crate) map: HashMap<SchedKey, [u32; KEY_WAYS], SchedBuild>,
    pub(crate) entries: Vec<SchedEntry>,
    pub(crate) checks: Vec<SlotCheck>,
    pub(crate) cursor_checks: Vec<CursorCheck>,
    pub(crate) writes: Vec<MissWrite>,
    /// Ring-emission scratch: per miss of the last serviced burst,
    /// the victim's physical address + 1, or 0 for none. Only
    /// maintained when the caller asks (the trap ring is off on the
    /// throughput path).
    pub(crate) victims: Vec<u64>,
    replays: u64,
    records: u64,
    sig_misses: u64,
}

impl MissSchedule {
    /// Entry-count bound; crossing it resets the store (counters
    /// survive). Far above what a trial's distinct burst shapes need.
    const MAX_ENTRIES: usize = 1 << 17;
    /// Arena bound shared by checks and writes.
    const MAX_ARENA: usize = 1 << 20;

    /// An empty schedule cache.
    pub fn new() -> Self {
        MissSchedule::default()
    }

    /// Bursts answered by replaying a recorded schedule.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Bursts serviced stepwise-equivalently and recorded.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Keyed lookups whose recorded signature failed verification
    /// (trap-run shape or set state diverged), forcing a re-record.
    pub fn sig_misses(&self) -> u64 {
        self.sig_misses
    }

    /// Resets everything, counters included (between trials).
    pub fn clear(&mut self) {
        self.reset_store();
        self.replays = 0;
        self.records = 0;
        self.sig_misses = 0;
    }

    pub(crate) fn count_replay(&mut self) {
        self.replays += 1;
    }

    pub(crate) fn count_record(&mut self) {
        self.records += 1;
    }

    pub(crate) fn count_sig_miss(&mut self) {
        self.sig_misses += 1;
    }

    /// Drops all cached schedules but keeps the counters.
    pub(crate) fn reset_store(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.checks.clear();
        self.cursor_checks.clear();
        self.writes.clear();
        self.victims.clear();
    }

    /// `true` when another record would cross a capacity bound.
    pub(crate) fn at_capacity(&self) -> bool {
        self.entries.len() >= Self::MAX_ENTRIES
            || self.checks.len() >= Self::MAX_ARENA
            || self.writes.len() >= Self::MAX_ARENA
            || self.cursor_checks.len() >= Self::MAX_ARENA
    }

    /// Victim scratch from the last serviced burst (pa + 1, 0 = none),
    /// one slot per miss, for ring-event emission.
    pub fn last_burst_victims(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        self.victims
            .iter()
            .map(|&v| if v == 0 { None } else { Some(v - 1) })
    }
}

/// Entry conditions of one trap burst for
/// [`crate::Tapeworm::service_burst`]. The trial engine no longer
/// builds these (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct BurstRequest {
    /// Workload component charged for the misses.
    pub component: Component,
    /// Task owning the fetched lines.
    pub tid: Tid,
    /// Burst entry virtual address (word-aligned, possibly mid-line).
    pub va: VirtAddr,
    /// Its translation.
    pub pa: PhysAddr,
    /// Words remaining in the instruction run.
    pub rem_words: u64,
    /// End of the contiguously-mapped service span (page end).
    pub page_end_va: u64,
    /// Tick budget in milli-cycles (the stepwise loop's
    /// `budget_milli`).
    pub budget_milli: u64,
    /// Per-word CPI in milli-cycles.
    pub cpi_milli: u64,
    /// Per-miss dilation overhead in milli-cycles (0 when the trial
    /// does not dilate).
    pub dilate_ov_milli: u64,
    /// Interrupts masked: misses are counted, not serviced.
    pub masked: bool,
    /// Maintain the per-miss victim scratch for ring emission.
    pub want_victims: bool,
}

/// What [`crate::Tapeworm::service_burst`] serviced, for the caller to
/// account machine-side (retire, counters, clock, ring).
#[derive(Debug, Clone, Copy)]
pub struct BurstServed {
    /// Chunks probed — all of them misses (or masked skips).
    pub chunks: u64,
    /// Words retired.
    pub words: u64,
    /// Handler + replacement cycles charged (0 when masked).
    pub overhead_cycles: u64,
    /// Serviced by replaying a recorded schedule.
    pub replayed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_packs_and_rejects_overflow() {
        let va = VirtAddr::new(0x12345);
        let a = SchedKey::pack(va, 100, 7, Tid::new(3), Component::User).unwrap();
        let b = SchedKey::pack(va, 100, 7, Tid::new(3), Component::User).unwrap();
        assert_eq!(a, b);
        for (rem, pfn) in [(101, 7), (100, 8), (100, 7)] {
            let c = SchedKey::pack(va, rem, pfn, Tid::new(4), Component::User).unwrap();
            assert_ne!(a, c, "distinct conditions must yield distinct keys");
        }
        assert!(SchedKey::pack(va, 1 << 20, 7, Tid::new(3), Component::User).is_none());
        assert!(SchedKey::pack(va, 100, 1 << 24, Tid::new(3), Component::User).is_none());
    }

    #[test]
    fn clear_resets_counters_and_store() {
        let mut s = MissSchedule::new();
        s.count_replay();
        s.count_record();
        s.count_sig_miss();
        s.victims.push(41);
        s.victims.push(0);
        let got: Vec<Option<u64>> = s.last_burst_victims().collect();
        assert_eq!(got, vec![Some(40), None]);
        s.clear();
        assert_eq!(s.replays(), 0);
        assert_eq!(s.records(), 0);
        assert_eq!(s.sig_misses(), 0);
        assert_eq!(s.last_burst_victims().count(), 0);
    }
}
