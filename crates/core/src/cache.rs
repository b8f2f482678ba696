//! The software data structure behind `tw_replace`.

use tapeworm_mem::{PhysAddr, VirtAddr};
use tapeworm_os::Tid;
use tapeworm_stats::{Rng, SeedSeq};

use crate::config::{CacheConfig, Indexing, Replacement};

/// One resident line of the simulated cache.
///
/// Both addresses are retained: the physical line locates the trap to
/// re-arm on displacement; the virtual line plus `tid` form the tag
/// under virtual indexing ("the tid is used to form part of the cache
/// tag", Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Owning task (tag component under virtual indexing).
    pub tid: Tid,
    /// Line-aligned virtual address.
    pub va: VirtAddr,
    /// Line-aligned physical address.
    pub pa: PhysAddr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Slot {
    line: Option<CacheLine>,
}

/// A set-associative simulated cache.
///
/// Tapeworm never *searches* this structure on the hot path — hardware
/// filters hits — so the only operations are insert-with-displacement
/// (`tw_replace`), page flush (`tw_remove_page`) and invariant probes
/// for tests.
///
/// # Examples
///
/// ```
/// use tapeworm_core::{CacheConfig, SimCache};
/// use tapeworm_os::Tid;
/// use tapeworm_mem::{PhysAddr, VirtAddr};
/// use tapeworm_stats::{Rng, SeedSeq};
///
/// let cfg = CacheConfig::new(1024, 16, 1)?;
/// let mut cache = SimCache::new(cfg, SeedSeq::new(1));
/// let displaced = cache.insert(Tid::new(1), VirtAddr::new(0x100), PhysAddr::new(0x900));
/// assert!(displaced.is_none()); // cold cache
/// # Ok::<(), tapeworm_core::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct SimCache {
    cfg: CacheConfig,
    slots: Vec<Slot>,
    /// Per-set FIFO cursor.
    cursors: Vec<u32>,
    rng: Rng,
    resident: u64,
}

impl SimCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig, seed: SeedSeq) -> Self {
        let n = (cfg.sets() * u64::from(cfg.associativity())) as usize;
        SimCache {
            cfg,
            slots: vec![Slot::default(); n],
            cursors: vec![0; cfg.sets() as usize],
            rng: seed.derive("simcache", cfg.size_bytes()).rng(),
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of lines currently resident.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let ways = self.cfg.associativity() as usize;
        let start = set as usize * ways;
        start..start + ways
    }

    /// Inserts the line for `(tid, va, pa)` (which just missed),
    /// displacing and returning a victim if its set is full
    /// (`tw_replace` in Table 1).
    ///
    /// Addresses are line-aligned internally; callers may pass any
    /// address within the line.
    pub fn insert(&mut self, tid: Tid, va: VirtAddr, pa: PhysAddr) -> Option<CacheLine> {
        let line_bytes = self.cfg.line_bytes();
        let entry = CacheLine {
            tid,
            va: va.line_base(line_bytes),
            pa: pa.line_base(line_bytes),
        };
        let set = self.cfg.set_of(entry.va, entry.pa);
        if self.cfg.associativity() == 1 && self.cfg.replacement() == Replacement::Fifo {
            // Direct-mapped FIFO (the common simulated cache): the lone
            // way is refreshed, filled or displaced; its cursor would
            // never move ((0 + 1) % 1 == 0).
            let slot = &mut self.slots[set as usize].line;
            return match *slot {
                Some(line) if line == entry => None,
                None => {
                    *slot = Some(entry);
                    self.resident += 1;
                    None
                }
                Some(_) => slot.replace(entry),
            };
        }
        let range = self.set_range(set);

        // Duplicate insertion (can occur when a shared line re-misses
        // under virtual or physical aliasing): treat as refresh, no
        // displacement.
        for i in range.clone() {
            if self.slots[i].line == Some(entry) {
                return None;
            }
        }
        for i in range.clone() {
            if self.slots[i].line.is_none() {
                self.slots[i].line = Some(entry);
                self.resident += 1;
                return None;
            }
        }
        let ways = self.cfg.associativity() as usize;
        let victim_way = match self.cfg.replacement() {
            Replacement::Fifo => {
                let c = &mut self.cursors[set as usize];
                let way = *c as usize;
                *c = (*c + 1) % self.cfg.associativity();
                way
            }
            Replacement::Random => self.rng.gen_range(0..ways),
        };
        let i = range.start + victim_way;
        self.slots[i].line.replace(entry)
    }

    /// Removes and returns every line whose physical address lies in
    /// `[page_pa, page_pa + page_bytes)` — the flush performed by
    /// `tw_remove_page`.
    pub fn flush_physical_page(&mut self, page_pa: PhysAddr, page_bytes: u64) -> Vec<CacheLine> {
        let mut flushed = Vec::new();
        for slot in &mut self.slots {
            if let Some(line) = slot.line {
                let off = line.pa.raw().wrapping_sub(page_pa.raw());
                if off < page_bytes {
                    flushed.push(line);
                    slot.line = None;
                    self.resident -= 1;
                }
            }
        }
        flushed
    }

    /// `true` when the physical line containing `pa` is resident (for
    /// any task/virtual alias). Test/diagnostic use only — the real
    /// simulator never searches.
    pub fn contains_physical(&self, pa: PhysAddr) -> bool {
        let pa = pa.line_base(self.cfg.line_bytes());
        self.slots
            .iter()
            .any(|s| matches!(s.line, Some(l) if l.pa == pa))
    }

    /// Removes the line holding physical address `pa`, if resident
    /// (first alias only). Used by multi-level simulation to enforce
    /// inclusion: an L2 eviction must invalidate the L1 copy.
    pub fn remove_physical_line(&mut self, pa: PhysAddr) -> Option<CacheLine> {
        let pa = pa.line_base(self.cfg.line_bytes());
        for slot in &mut self.slots {
            if matches!(slot.line, Some(l) if l.pa == pa) {
                self.resident -= 1;
                return slot.line.take();
            }
        }
        None
    }

    /// Searches for the physical line and reports it without mutating
    /// state (the software L2 lookup inside a multi-level handler —
    /// legitimate because it runs *in the miss handler*, not per
    /// reference).
    pub fn lookup_physical(&self, pa: PhysAddr) -> Option<&CacheLine> {
        let pa = pa.line_base(self.cfg.line_bytes());
        self.slots
            .iter()
            .filter_map(|s| s.line.as_ref())
            .find(|l| l.pa == pa)
    }

    /// Iterates over resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.slots.iter().filter_map(|s| s.line.as_ref())
    }

    /// Empties the cache (between trials).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.line = None;
        }
        self.cursors.fill(0);
        self.resident = 0;
    }

    /// The indexing mode (convenience passthrough).
    pub fn indexing(&self) -> Indexing {
        self.cfg.indexing()
    }

    // Raw set-state access for the scheduled burst path. The schedule
    // records and verifies exact slot contents (every way of a touched
    // set, plus the FIFO cursor), so these expose the state directly
    // without rerunning the insert walk; semantics stay pinned to
    // `insert` by the miss-schedule differential suite.

    /// The line (if any) in flat slot `i` (`set * ways + way`).
    #[inline]
    pub(crate) fn slot_line(&self, i: usize) -> Option<CacheLine> {
        self.slots[i].line
    }

    /// Replaces flat slot `i`'s line, returning the prior occupant.
    /// Callers account `resident` via [`SimCache::note_fill`] when the
    /// prior occupant was `None`.
    #[inline]
    pub(crate) fn slot_replace(&mut self, i: usize, line: CacheLine) -> Option<CacheLine> {
        self.slots[i].line.replace(line)
    }

    /// Counts one fill of a previously empty slot.
    #[inline]
    pub(crate) fn note_fill(&mut self) {
        self.resident += 1;
    }

    /// The FIFO cursor for `set` (the way the next displacement in a
    /// full set would evict).
    #[inline]
    pub(crate) fn cursor(&self, set: usize) -> u32 {
        self.cursors[set]
    }

    /// Returns the FIFO victim way for `set` and advances the cursor,
    /// exactly as a full-set `insert` displacement would.
    #[inline]
    pub(crate) fn take_cursor(&mut self, set: usize) -> u32 {
        let way = self.cursors[set];
        self.cursors[set] = (way + 1) % self.cfg.associativity();
        way
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, line: u64, ways: u32) -> SimCache {
        SimCache::new(CacheConfig::new(size, line, ways).unwrap(), SeedSeq::new(3))
    }

    fn line(tid: u16, addr: u64) -> (Tid, VirtAddr, PhysAddr) {
        (Tid::new(tid), VirtAddr::new(addr), PhysAddr::new(addr))
    }

    #[test]
    fn cold_inserts_do_not_displace() {
        let mut c = cache(256, 16, 1); // 16 sets
        for i in 0..16u64 {
            let (t, va, pa) = line(1, i * 16);
            assert!(c.insert(t, va, pa).is_none());
        }
        assert_eq!(c.resident(), 16);
    }

    #[test]
    fn direct_mapped_conflict_displaces_same_set() {
        let mut c = cache(256, 16, 1); // 16 sets
        let (t, va0, pa0) = line(1, 0);
        c.insert(t, va0, pa0);
        // Address 256 maps to set 0 again.
        let (t, va1, pa1) = line(1, 256);
        let displaced = c.insert(t, va1, pa1).expect("conflict must displace");
        assert_eq!(displaced.pa, pa0);
        assert_eq!(c.resident(), 16.min(1));
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let mut c = cache(512, 16, 2); // 16 sets, 2 ways
        let (t, va0, pa0) = line(1, 0);
        let (_, va1, pa1) = line(1, 256);
        let (_, va2, pa2) = line(1, 512);
        assert!(c.insert(t, va0, pa0).is_none());
        assert!(c.insert(t, va1, pa1).is_none());
        // Third conflicting line displaces FIFO victim = first inserted.
        let d = c.insert(t, va2, pa2).unwrap();
        assert_eq!(d.pa, pa0);
        // Fourth displaces the second.
        let (_, va3, pa3) = line(1, 768);
        let d = c.insert(t, va3, pa3).unwrap();
        assert_eq!(d.pa, pa1);
    }

    #[test]
    fn unaligned_addresses_are_line_aligned() {
        let mut c = cache(256, 16, 1);
        let t = Tid::new(1);
        c.insert(t, VirtAddr::new(0x13), PhysAddr::new(0x27));
        assert!(c.contains_physical(PhysAddr::new(0x20)));
        assert!(c.contains_physical(PhysAddr::new(0x2F)));
        assert!(!c.contains_physical(PhysAddr::new(0x30)));
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut c = cache(256, 16, 2);
        let (t, va, pa) = line(1, 0x40);
        assert!(c.insert(t, va, pa).is_none());
        assert!(c.insert(t, va, pa).is_none());
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn virtual_indexing_tags_by_task() {
        let cfg = CacheConfig::new(256, 16, 2)
            .unwrap()
            .with_indexing(Indexing::Virtual);
        let mut c = SimCache::new(cfg, SeedSeq::new(1));
        // Same VA in two tasks: distinct lines, same set.
        let va = VirtAddr::new(0x40);
        let pa = PhysAddr::new(0x40);
        assert!(c.insert(Tid::new(1), va, pa).is_none());
        assert!(c.insert(Tid::new(2), va, pa).is_none());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn flush_physical_page_removes_only_that_page() {
        let mut c = cache(4096, 16, 1);
        let t = Tid::new(1);
        // Lines in page 0 (0..4096 is the whole cache; use 2 pages of 256B).
        c.insert(t, VirtAddr::new(0x000), PhysAddr::new(0x000));
        c.insert(t, VirtAddr::new(0x010), PhysAddr::new(0x010));
        c.insert(t, VirtAddr::new(0x100), PhysAddr::new(0x100));
        let flushed = c.flush_physical_page(PhysAddr::new(0), 0x100);
        assert_eq!(flushed.len(), 2);
        assert!(!c.contains_physical(PhysAddr::new(0x000)));
        assert!(c.contains_physical(PhysAddr::new(0x100)));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn random_replacement_displaces_something_in_the_set() {
        let cfg = CacheConfig::new(512, 16, 2)
            .unwrap()
            .with_replacement(Replacement::Random);
        let mut c = SimCache::new(cfg, SeedSeq::new(9));
        let t = Tid::new(1);
        c.insert(t, VirtAddr::new(0), PhysAddr::new(0));
        c.insert(t, VirtAddr::new(256), PhysAddr::new(256));
        let d = c.insert(t, VirtAddr::new(512), PhysAddr::new(512)).unwrap();
        assert!(d.pa == PhysAddr::new(0) || d.pa == PhysAddr::new(256));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = cache(256, 16, 1);
        c.insert(Tid::new(1), VirtAddr::new(0), PhysAddr::new(0));
        c.clear();
        assert_eq!(c.resident(), 0);
        assert_eq!(c.iter().count(), 0);
    }
}
