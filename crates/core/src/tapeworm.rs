//! The Tapeworm simulator: Table 1 primitives and the miss handler.

use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WORD_BYTES};
use tapeworm_os::{Tid, VmEvent};
use tapeworm_stats::SeedSeq;

use crate::cache::{CacheLine, SimCache};
use crate::config::{CacheConfig, Indexing, Replacement};
use crate::cost::CostModel;
use crate::sampling::SetSample;
use crate::schedule::{
    BurstRequest, BurstServed, CursorCheck, MissSchedule, MissWrite, SchedEntry, SchedKey,
    SlotCheck, WriteKind, KEY_WAYS, NO_ENTRY,
};
use crate::stats::MissStats;

/// The trap-driven cache simulator.
///
/// A `Tapeworm` owns the simulated cache (software state), the set
/// sample and the cost model; the host trap map is passed in by the
/// caller because it belongs to the machine, exactly as the real
/// Tapeworm manipulated the DECstation's ECC bits rather than owning
/// them.
///
/// The invariant maintained for registered pages: **a line is trapped
/// if and only if it is in a sampled set and not resident in the
/// simulated cache.** Hits therefore never trap, and every trap is a
/// simulated miss — the core idea of the paper.
///
/// # Examples
///
/// ```
/// use tapeworm_core::{CacheConfig, Tapeworm};
/// use tapeworm_machine::Component;
/// use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr};
/// use tapeworm_os::Tid;
/// use tapeworm_stats::SeedSeq;
///
/// let cfg = CacheConfig::new(1024, 16, 1)?;
/// let mut traps = TrapMap::new(64 * 1024, 16);
/// let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
///
/// // The VM system registers a freshly mapped page:
/// let tid = Tid::new(1);
/// tw.tw_register_page(&mut traps, tid, Pfn::new(3), 0);
/// let pa = Pfn::new(3).base(4096);
/// assert!(traps.is_trapped(pa)); // not yet "cached" -> trapped
///
/// // First reference traps; the handler caches the line:
/// let cycles = tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), pa);
/// assert_eq!(cycles, 246);
/// assert!(!traps.is_trapped(pa)); // subsequent hits run at full speed
/// # Ok::<(), tapeworm_core::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct Tapeworm {
    cfg: CacheConfig,
    cache: SimCache,
    sample: SetSample,
    cost: CostModel,
    stats: MissStats,
    page_bytes: u64,
    /// `page_bytes.trailing_zeros()`: frame lookup on the per-miss
    /// path is a shift, not a divide.
    page_shift: u32,
    /// Registration refcounts indexed by frame number (grown on
    /// demand): the miss handler probes this per displaced line, so it
    /// must be an array load, not a hash lookup.
    page_refs: Vec<u32>,
    /// Frames with a non-zero refcount.
    live_pages: usize,
    overhead_cycles: u64,
    /// Trap-entry + miss-bookkeeping share of `overhead_cycles`.
    handler_cycles: u64,
    /// Victim-selection/re-trap + page registration share.
    replacement_cycles: u64,
    pages_registered: u64,
    /// Victim displaced by the most recent `handle_miss`, if any.
    last_victim: Option<PhysAddr>,
    /// `cost.cycles_per_miss_split(&cfg)`, memoized: geometry and cost
    /// model are fixed for the simulator's lifetime, and the float
    /// math does not belong on the per-miss path.
    miss_cost: (u64, u64),
}

impl Tapeworm {
    /// Creates a simulator for the given cache geometry over pages of
    /// `page_bytes`, with no sampling and the optimized cost model.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a multiple of the line size (a
    /// page must hold whole lines).
    pub fn new(cfg: CacheConfig, page_bytes: u64, seed: SeedSeq) -> Self {
        assert!(
            page_bytes % cfg.line_bytes() == 0,
            "page size must be a whole number of cache lines"
        );
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let cost = CostModel::optimized();
        Tapeworm {
            cache: SimCache::new(cfg, seed),
            sample: SetSample::full(),
            stats: MissStats::new(1.0),
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            page_refs: Vec::new(),
            live_pages: 0,
            overhead_cycles: 0,
            handler_cycles: 0,
            replacement_cycles: 0,
            pages_registered: 0,
            last_victim: None,
            miss_cost: cost.cycles_per_miss_split(&cfg),
            cost,
            cfg,
        }
    }

    /// Current registration refcount of a frame.
    #[inline]
    fn refs_of(&self, pfn: Pfn) -> u32 {
        self.page_refs.get(pfn.raw() as usize).copied().unwrap_or(0)
    }

    /// Enables set sampling (must be set before any pages are
    /// registered).
    ///
    /// # Panics
    ///
    /// Panics if pages have already been registered.
    pub fn with_sampling(mut self, sample: SetSample) -> Self {
        assert!(
            self.live_pages == 0,
            "sampling must be configured before registration"
        );
        self.sample = sample;
        self.stats = MissStats::new(sample.expansion_factor());
        self
    }

    /// Replaces the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.miss_cost = cost.cycles_per_miss_split(&self.cfg);
        self.cost = cost;
        self
    }

    /// The simulated cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The active set sample.
    pub fn sample(&self) -> &SetSample {
        &self.sample
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Miss statistics.
    pub fn stats(&self) -> &MissStats {
        &self.stats
    }

    /// Total simulator overhead charged so far, in cycles.
    pub fn overhead_cycles(&self) -> u64 {
        self.overhead_cycles
    }

    /// The trap-entry + miss-bookkeeping share of
    /// [`Tapeworm::overhead_cycles`] (per-phase accounting).
    pub fn handler_cycles(&self) -> u64 {
        self.handler_cycles
    }

    /// The victim-selection, re-trap and page registration share of
    /// [`Tapeworm::overhead_cycles`]. Together with
    /// [`Tapeworm::handler_cycles`] it accounts for every overhead
    /// cycle.
    pub fn replacement_cycles(&self) -> u64 {
        self.replacement_cycles
    }

    /// The victim line displaced by the most recent
    /// [`Tapeworm::handle_miss`], if that miss evicted one.
    pub fn last_victim(&self) -> Option<PhysAddr> {
        self.last_victim
    }

    /// Pages currently registered (live refcounts).
    pub fn registered_pages(&self) -> usize {
        self.live_pages
    }

    /// `tw_set_trap(pa, size)` — arm traps over a physical range.
    pub fn tw_set_trap(&mut self, traps: &mut TrapMap, pa: PhysAddr, size: u64) {
        traps.set_range(pa, size);
    }

    /// `tw_clear_trap(pa, size)` — disarm traps over a physical range.
    pub fn tw_clear_trap(&mut self, traps: &mut TrapMap, pa: PhysAddr, size: u64) {
        traps.clear_range(pa, size);
    }

    /// `tw_register_page(tid, p, v)` — bring a page into the Tapeworm
    /// domain. The first registration of a physical page sets traps on
    /// its (sampled) lines; additional registrations of a shared page
    /// only bump the reference count so sharers "benefit from shared
    /// entries brought into the cache by another task" (§3.2).
    ///
    /// Returns the cycles charged for trap setting.
    pub fn tw_register_page(&mut self, traps: &mut TrapMap, tid: Tid, pfn: Pfn, vpn: u64) -> u64 {
        let i = pfn.raw() as usize;
        if i >= self.page_refs.len() {
            self.page_refs.resize(i + 1, 0);
        }
        self.page_refs[i] += 1;
        if self.page_refs[i] > 1 {
            return 0;
        }
        self.live_pages += 1;
        self.pages_registered += 1;
        let base_pa = pfn.base(self.page_bytes);
        let line = self.cfg.line_bytes();
        let lines = self.page_bytes / line;
        // Which set a line maps to depends on the indexing mode; under
        // virtual indexing use the registering task's virtual lines.
        let first_pa_line = base_pa.line_index(line);
        let first_va_line = vpn * (self.page_bytes / line);
        let sample = self.sample;
        let cfg = self.cfg;
        let mut set_count = 0u64;
        if sample.denominator() == 1 {
            // Full sample: every line traps regardless of its set, so
            // arm the whole page in one word-masked rewrite instead of
            // a per-line walk. Same granule transitions, same event
            // counts — bit-identical to the loop below.
            traps.set_range(base_pa, self.page_bytes);
            set_count = lines;
        } else {
            for i in 0..lines {
                let set = match cfg.indexing() {
                    Indexing::Physical => cfg.set_of_line(first_pa_line + i),
                    Indexing::Virtual => cfg.set_of_line(first_va_line + i),
                };
                if sample.is_sampled(set) {
                    traps.set_range(PhysAddr::new((first_pa_line + i) * line), line);
                    set_count += 1;
                }
            }
        }
        let _ = tid;
        let fraction = if lines == 0 {
            0.0
        } else {
            set_count as f64 / lines as f64
        };
        let cycles = self.cost.cycles_per_register(self.page_bytes, fraction);
        self.overhead_cycles += cycles;
        self.replacement_cycles += cycles;
        cycles
    }

    /// `tw_remove_page(tid, p, v)` — remove a page from the Tapeworm
    /// domain. Only the last unmapping flushes the page from the
    /// simulated cache and clears its traps (shared-page reference
    /// counting, §3.2). Returns the cycles charged.
    ///
    /// # Panics
    ///
    /// Panics if the page was never registered (a VM bookkeeping bug).
    pub fn tw_remove_page(&mut self, traps: &mut TrapMap, tid: Tid, pfn: Pfn, vpn: u64) -> u64 {
        let refs = self
            .page_refs
            .get_mut(pfn.raw() as usize)
            .filter(|r| **r > 0)
            .unwrap_or_else(|| panic!("removing unregistered page {pfn}"));
        *refs -= 1;
        if *refs > 0 {
            return 0;
        }
        self.live_pages -= 1;
        let base_pa = pfn.base(self.page_bytes);
        self.cache.flush_physical_page(base_pa, self.page_bytes);
        traps.clear_range(base_pa, self.page_bytes);
        let _ = (tid, vpn);
        let cycles = self
            .cost
            .cycles_per_register(self.page_bytes, self.sample.fraction());
        self.overhead_cycles += cycles;
        self.replacement_cycles += cycles;
        cycles
    }

    /// `tw_replace(tid, pa, va)` — insert a missing line into the
    /// simulated cache and return the displaced line, if any.
    pub fn tw_replace(&mut self, tid: Tid, va: VirtAddr, pa: PhysAddr) -> Option<CacheLine> {
        self.cache.insert(tid, va, pa)
    }

    /// The constant cycle charge of one [`Tapeworm::handle_miss`]
    /// (handler + replacement shares of the memoized cost model).
    #[inline]
    pub fn miss_overhead_cycles(&self) -> u64 {
        self.miss_cost.0 + self.miss_cost.1
    }

    /// The optimized miss handler (Figure 1, right side): count the
    /// miss, clear the trap on the missing line, insert it, re-trap the
    /// displaced line. Returns the cycles charged.
    #[inline]
    pub fn handle_miss(
        &mut self,
        traps: &mut TrapMap,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        pa: PhysAddr,
    ) -> u64 {
        self.stats.count_miss(component);
        let line = self.cfg.line_bytes();
        traps.clear_range(pa.line_base(line), line);
        self.last_victim = None;
        if let Some(displaced) = self.tw_replace(tid, va, pa) {
            self.last_victim = Some(displaced.pa);
            // Re-arm the trap only while the displaced page is still
            // registered (it always is — removal flushes — but shared
            // teardown ordering makes the check cheap insurance).
            if self.refs_of(Pfn::new(displaced.pa.raw() >> self.page_shift)) > 0 {
                traps.set_range(displaced.pa, line);
            }
        }
        let (handler, replacement) = self.miss_cost;
        self.handler_cycles += handler;
        self.replacement_cycles += replacement;
        let cycles = handler + replacement;
        self.overhead_cycles += cycles;
        cycles
    }

    /// Records a miss that was lost because interrupts were masked.
    pub fn note_masked_miss(&mut self) {
        self.stats.count_masked();
    }

    /// `true` when this simulator's geometry admits the scheduled
    /// burst path ([`Tapeworm::service_burst`]): a physically indexed
    /// FIFO cache whose set span covers at least a page, so every
    /// granule of a page maps to a distinct set and a burst's victims
    /// always lie outside the frame being serviced (each set's only
    /// granule of that frame is the missing one itself). Random
    /// replacement is excluded (a replay could not reproduce the RNG
    /// draws it skips), as is virtual indexing (a victim there could
    /// re-arm a granule ahead in the burst's own span).
    ///
    /// The trial engine no longer calls the scheduled burst path; this
    /// stays for direct callers (the benchmark's burst probe and the
    /// `sched-fuzz` suite).
    #[inline]
    pub fn sched_eligible(&self) -> bool {
        self.cfg.indexing() == Indexing::Physical
            && self.cfg.replacement() == Replacement::Fifo
            && self.cfg.sets() * self.cfg.line_bytes() >= self.page_bytes
    }

    /// Services one whole trap burst against the set-state table,
    /// replaying a recorded miss schedule when the burst's signature
    /// matches a prior occurrence (see [`MissSchedule`] for the
    /// signature soundness argument). The trapped-granule run is sized
    /// from a handful of bitmap word loads ([`TrapMap::trapped_run`]),
    /// clipped by the remaining words and the live tick budget exactly
    /// as the stepwise per-chunk pre-checks would, and the serviced
    /// granules are disarmed in one merged `clear_range`.
    ///
    /// Returns `None` when the burst is not serviceable here — clean
    /// entry granule, budget-starved before the first chunk, or a key
    /// field overflow — and the caller falls back to the stepwise
    /// loop. Every produced outcome (counters, cycles, trap
    /// transitions, set state, victims) is what the same chunks
    /// serviced one by one through [`Tapeworm::handle_miss`] would
    /// produce; `crates/core/tests/sched_fuzz.rs` pins the replay
    /// signature's soundness.
    ///
    /// The trial engine no longer calls this: its trap-service walk
    /// runs the plain handler inline, so trials report the `Sched*`
    /// counters as 0. It is kept as a standalone primitive for the
    /// benchmark's `core.service_burst` probe.
    pub fn service_burst(
        &mut self,
        traps: &mut TrapMap,
        sched: &mut MissSchedule,
        req: &BurstRequest,
    ) -> Option<BurstServed> {
        debug_assert!(self.sched_eligible());
        let line = self.cfg.line_bytes();
        debug_assert_eq!(traps.granule(), line);
        let line_words = line / WORD_BYTES;
        let shift = line.trailing_zeros();
        // Granule window covering [va, page_end): the run never looks
        // past the contiguously-mapped service span.
        let g_count = ((req.page_end_va - 1) >> shift) - (req.va.raw() >> shift) + 1;
        let run = traps.trapped_run(req.pa, g_count);
        if run == 0 {
            return None; // entry granule clean: not a trap burst
        }
        // Effective remaining words: clipping to the page changes
        // nothing (the granule window already ends there) but makes
        // the schedule key independent of run length beyond the page.
        let eff_rem = req
            .rem_words
            .min((req.page_end_va - req.va.raw()) / WORD_BYTES);
        // Clip the run by remaining words and the tick budget,
        // replicating the stepwise per-chunk pre-checks exactly: the
        // budget check always prices the dilation overhead, masked
        // chunks then deduct only the undilated fetch cost.
        let head_words = line_words - (req.va.raw() % line) / WORD_BYTES;
        let mut k = 0u64;
        let mut words = 0u64;
        let mut rem = eff_rem;
        let mut budget = req.budget_milli;
        let mut truncated = false;
        while k < run && rem > 0 {
            let bw = rem.min(if k == 0 { head_words } else { line_words });
            let cost = bw * req.cpi_milli + req.dilate_ov_milli;
            if cost >= budget {
                truncated = true;
                break;
            }
            budget -= if req.masked { bw * req.cpi_milli } else { cost };
            words += bw;
            rem -= bw;
            k += 1;
        }
        if k == 0 {
            return None; // budget-starved: the stepwise path delivers the tick
        }
        if req.masked {
            // Masked bursts change no simulator state; the stepwise
            // loop only counts them.
            self.stats.count_masked_n(k);
            return Some(BurstServed {
                chunks: k,
                words,
                overhead_cycles: 0,
                replayed: false,
            });
        }
        let key = SchedKey::pack(
            req.va,
            eff_rem,
            req.pa.raw() >> self.page_shift,
            req.tid,
            req.component,
        )?;
        // The burst is committed: accounting identical whether the
        // schedule replays or records.
        self.stats.count_misses(req.component, k);
        let (handler, replacement) = self.miss_cost;
        self.handler_cycles += handler * k;
        self.replacement_cycles += replacement * k;
        let overhead_cycles = (handler + replacement) * k;
        self.overhead_cycles += overhead_cycles;
        // Disarm all k serviced granules in one merged op — the same k
        // transitions as the stepwise per-miss clears, and no victim
        // can re-arm inside the span under the eligibility gate.
        traps.clear_range(req.pa.line_base(line), k * line);
        if req.want_victims {
            sched.victims.clear();
        }
        let overwrite = if truncated {
            // A truncated shape depends on the live tick budget and is
            // never cached.
            None
        } else {
            match sched.map.get(&key).copied() {
                Some(pair) => {
                    for (way, idx) in pair.into_iter().enumerate() {
                        if idx == NO_ENTRY {
                            continue;
                        }
                        let e = sched.entries[idx as usize];
                        if u64::from(e.k) == k
                            && u64::from(e.words) == words
                            && self.verify_schedule(sched, e)
                        {
                            if way > 0 {
                                // Promote to most-recent so a later
                                // sig miss evicts the stalest shape.
                                let mut next = pair;
                                next.copy_within(..way, 1);
                                next[0] = idx;
                                sched.map.insert(key, next);
                            }
                            self.replay_schedule(traps, sched, e, req);
                            sched.count_replay();
                            return Some(BurstServed {
                                chunks: k,
                                words,
                                overhead_cycles,
                                replayed: true,
                            });
                        }
                    }
                    sched.count_sig_miss();
                    Some(pair)
                }
                None => None,
            }
        };
        self.record_burst(traps, sched, req, key, k, words, truncated, overwrite);
        Some(BurstServed {
            chunks: k,
            words,
            overhead_cycles,
            replayed: false,
        })
    }

    /// `true` when every recorded slot and cursor still holds exactly
    /// what it held when the schedule was recorded — the set-state
    /// half of the replay signature.
    #[inline]
    fn verify_schedule(&self, sched: &MissSchedule, e: SchedEntry) -> bool {
        for c in &sched.checks[e.checks.0 as usize..e.checks.1 as usize] {
            if self.cache.slot_line(c.slot as usize) != c.line {
                return false;
            }
        }
        for c in &sched.cursor_checks[e.cursor_checks.0 as usize..e.cursor_checks.1 as usize] {
            if self.cache.cursor(c.set as usize) != c.cursor {
                return false;
            }
        }
        true
    }

    /// Applies a verified schedule: slot writes, victim re-arms and
    /// FIFO cursor advances, with zero probes and zero victim
    /// re-derivation. The victims are read back from the verified
    /// slots themselves, so nothing address-shaped is stored per miss
    /// beyond the write kind.
    fn replay_schedule(
        &mut self,
        traps: &mut TrapMap,
        sched: &mut MissSchedule,
        e: SchedEntry,
        req: &BurstRequest,
    ) {
        let line = self.cfg.line_bytes();
        let ways = self.cfg.associativity();
        let base_va = req.va.line_base(line).raw();
        let base_pa = req.pa.line_base(line).raw();
        // The victim scratch moves out for the loop so the recorded
        // writes can be iterated as a slice (one bounds check).
        let mut victims = std::mem::take(&mut sched.victims);
        for (i, w) in sched.writes[e.writes.0 as usize..e.writes.1 as usize]
            .iter()
            .enumerate()
        {
            let i = i as u64;
            self.last_victim = None;
            let entry = CacheLine {
                tid: req.tid,
                va: VirtAddr::new(base_va + i * line),
                pa: PhysAddr::new(base_pa + i * line),
            };
            match w.kind {
                WriteKind::Refresh => {}
                WriteKind::Fill => {
                    let prior = self.cache.slot_replace(w.slot as usize, entry);
                    debug_assert!(prior.is_none(), "verified empty slot was occupied");
                    self.cache.note_fill();
                }
                WriteKind::Displace | WriteKind::DisplaceRetrap => {
                    if ways > 1 {
                        let set = w.slot / ways;
                        let way = self.cache.take_cursor(set as usize);
                        debug_assert_eq!(set * ways + way, w.slot, "verified cursor moved");
                    }
                    let prior = self
                        .cache
                        .slot_replace(w.slot as usize, entry)
                        .expect("verified full slot was empty");
                    if w.kind == WriteKind::DisplaceRetrap {
                        traps.set_range(prior.pa, line);
                    }
                    debug_assert_eq!(
                        w.kind == WriteKind::DisplaceRetrap,
                        self.refs_of(Pfn::new(prior.pa.raw() >> self.page_shift)) > 0,
                        "victim registration state changed under an unchanged set state"
                    );
                    self.last_victim = Some(prior.pa);
                }
            }
            if req.want_victims {
                victims.push(self.last_victim.map_or(0, |p| p.raw() + 1));
            }
        }
        sched.victims = victims;
    }

    /// Services the burst against the set-state table one
    /// stepwise-equivalent step at a time, appending the outcome to
    /// the schedule unless the burst was budget-truncated.
    #[allow(clippy::too_many_arguments)]
    fn record_burst(
        &mut self,
        traps: &mut TrapMap,
        sched: &mut MissSchedule,
        req: &BurstRequest,
        key: SchedKey,
        k: u64,
        words: u64,
        truncated: bool,
        overwrite: Option<[u32; KEY_WAYS]>,
    ) {
        let line = self.cfg.line_bytes();
        let ways = self.cfg.associativity() as usize;
        let cache_it = !truncated;
        let mut overwrite = overwrite;
        if cache_it && sched.at_capacity() {
            // Deterministic wholesale reset keeps the store bounded.
            sched.reset_store();
            overwrite = None;
        }
        let checks0 = sched.checks.len() as u32;
        let cursors0 = sched.cursor_checks.len() as u32;
        let writes0 = sched.writes.len() as u32;
        let base_va = req.va.line_base(line).raw();
        let base_pa = req.pa.line_base(line).raw();
        for i in 0..k {
            let va_i = VirtAddr::new(base_va + i * line);
            let pa_i = PhysAddr::new(base_pa + i * line);
            let entry = CacheLine {
                tid: req.tid,
                va: va_i,
                pa: pa_i,
            };
            let set = self.cfg.set_of(va_i, pa_i) as usize;
            let slot0 = set * ways;
            // Snapshot every way: the signature the next replay of
            // this key must match verbatim.
            let mut dup = false;
            let mut empty = None;
            for w in 0..ways {
                let cur = self.cache.slot_line(slot0 + w);
                if cache_it {
                    sched.checks.push(SlotCheck {
                        slot: (slot0 + w) as u32,
                        line: cur,
                    });
                }
                if cur == Some(entry) {
                    dup = true;
                } else if cur.is_none() && empty.is_none() {
                    empty = Some(w);
                }
            }
            self.last_victim = None;
            let (kind, slot) = if dup {
                // Aliased duplicate: refresh, no displacement.
                (WriteKind::Refresh, slot0 as u32)
            } else if let Some(w) = empty {
                let prior = self.cache.slot_replace(slot0 + w, entry);
                debug_assert!(prior.is_none());
                self.cache.note_fill();
                (WriteKind::Fill, (slot0 + w) as u32)
            } else {
                let way = if ways == 1 {
                    0
                } else {
                    if cache_it {
                        sched.cursor_checks.push(CursorCheck {
                            set: set as u32,
                            cursor: self.cache.cursor(set),
                        });
                    }
                    self.cache.take_cursor(set) as usize
                };
                let prior = self
                    .cache
                    .slot_replace(slot0 + way, entry)
                    .expect("full set has no empty way");
                let retrap = self.refs_of(Pfn::new(prior.pa.raw() >> self.page_shift)) > 0;
                if retrap {
                    traps.set_range(prior.pa, line);
                }
                self.last_victim = Some(prior.pa);
                let kind = if retrap {
                    WriteKind::DisplaceRetrap
                } else {
                    WriteKind::Displace
                };
                (kind, (slot0 + way) as u32)
            };
            if req.want_victims {
                sched
                    .victims
                    .push(self.last_victim.map_or(0, |p| p.raw() + 1));
            }
            if cache_it {
                sched.writes.push(MissWrite { slot, kind });
            }
        }
        if cache_it {
            let e = SchedEntry {
                k: k as u32,
                words: words as u32,
                checks: (checks0, sched.checks.len() as u32),
                cursor_checks: (cursors0, sched.cursor_checks.len() as u32),
                writes: (writes0, sched.writes.len() as u32),
            };
            // The new schedule becomes the key's most-recent way; the
            // older of the two existing ways is evicted (its entry
            // slot reused, its arena ranges leaked until the capacity
            // reset reclaims them wholesale).
            match overwrite {
                Some(pair) => {
                    let evict = pair[KEY_WAYS - 1];
                    let idx = if evict == NO_ENTRY {
                        let idx = sched.entries.len() as u32;
                        sched.entries.push(e);
                        idx
                    } else {
                        sched.entries[evict as usize] = e;
                        evict
                    };
                    let mut next = pair;
                    next.copy_within(..KEY_WAYS - 1, 1);
                    next[0] = idx;
                    sched.map.insert(key, next);
                }
                None => {
                    let idx = sched.entries.len() as u32;
                    sched.entries.push(e);
                    let mut pair = [NO_ENTRY; KEY_WAYS];
                    pair[0] = idx;
                    sched.map.insert(key, pair);
                }
            }
            sched.count_record();
        }
    }

    /// Dispatches a VM-system event to the matching primitive,
    /// returning the cycles charged.
    pub fn on_vm_event(&mut self, traps: &mut TrapMap, event: VmEvent) -> u64 {
        match event {
            VmEvent::PageRegistered { tid, pfn, vpn } => {
                self.tw_register_page(traps, tid, pfn, vpn)
            }
            VmEvent::PageRemoved { tid, pfn, vpn } => self.tw_remove_page(traps, tid, pfn, vpn),
        }
    }

    /// Verifies the core invariant for every registered page under
    /// physical indexing: each line is trapped iff sampled and not
    /// resident. Test/diagnostic aid (O(pages × lines)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated line.
    pub fn validate_invariant(&self, traps: &TrapMap) -> Result<(), String> {
        if self.cfg.indexing() != Indexing::Physical {
            return Ok(()); // virtual aliasing makes the pa-level check inapplicable
        }
        let line = self.cfg.line_bytes();
        for pfn in (0..self.page_refs.len() as u64)
            .map(Pfn::new)
            .filter(|p| self.refs_of(*p) > 0)
        {
            let base = pfn.base(self.page_bytes);
            for i in 0..self.page_bytes / line {
                let pa = PhysAddr::new(base.raw() + i * line);
                let sampled = self
                    .sample
                    .is_sampled(self.cfg.set_of_line(pa.line_index(line)));
                let trapped = traps.is_trapped(pa);
                let resident = self.cache.contains_physical(pa);
                let expect_trap = sampled && !resident;
                if trapped != expect_trap {
                    return Err(format!(
                        "line {pa}: trapped={trapped} but sampled={sampled}, resident={resident}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resets the counters and simulated cache, keeping geometry,
    /// sampling and registrations (between measurement windows).
    pub fn reset_counters(&mut self) {
        self.stats.reset();
        self.overhead_cycles = 0;
        self.handler_cycles = 0;
        self.replacement_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    fn setup(cache_bytes: u64) -> (Tapeworm, TrapMap) {
        let cfg = CacheConfig::new(cache_bytes, 16, 1).unwrap();
        (
            Tapeworm::new(cfg, PAGE, SeedSeq::new(1)),
            TrapMap::new(1 << 20, 16),
        )
    }

    #[test]
    fn register_sets_traps_on_whole_page() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(2), 0);
        assert_eq!(traps.count(), PAGE / 16);
        assert!(traps.is_trapped(PhysAddr::new(2 * PAGE)));
        assert!(traps.is_trapped(PhysAddr::new(3 * PAGE - 1)));
        assert!(!traps.is_trapped(PhysAddr::new(PAGE)));
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn miss_clears_trap_and_retraps_displaced() {
        let (mut tw, mut traps) = setup(1024); // 64 lines
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let a = PhysAddr::new(0);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), a);
        assert!(!traps.is_trapped(a), "cached line must not trap");
        // Line 64 lines later conflicts with line 0 in a 1K DM cache.
        let b = PhysAddr::new(1024);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(1024), b);
        assert!(!traps.is_trapped(b));
        assert!(traps.is_trapped(a), "displaced line must trap again");
        assert_eq!(tw.stats().raw_total(), 2);
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn shared_page_registration_refcounts() {
        let (mut tw, mut traps) = setup(1024);
        let pfn = Pfn::new(5);
        tw.tw_register_page(&mut traps, Tid::new(1), pfn, 0);
        let before = traps.count();
        // Second sharer: no new traps ("benefit from shared entries").
        let cycles = tw.tw_register_page(&mut traps, Tid::new(2), pfn, 7);
        assert_eq!(cycles, 0);
        assert_eq!(traps.count(), before);
        // First removal keeps traps; second clears.
        tw.tw_remove_page(&mut traps, Tid::new(1), pfn, 0);
        assert_eq!(traps.count(), before);
        tw.tw_remove_page(&mut traps, Tid::new(2), pfn, 7);
        assert_eq!(traps.count(), 0);
        assert_eq!(tw.registered_pages(), 0);
    }

    #[test]
    fn remove_page_flushes_simulated_cache() {
        let (mut tw, mut traps) = setup(64 * 1024); // big cache: no displacement
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        tw.handle_miss(
            &mut traps,
            Component::User,
            tid,
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        tw.tw_remove_page(&mut traps, tid, Pfn::new(0), 0);
        // Re-register: the page returns fully trapped (it was flushed).
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        assert!(traps.is_trapped(PhysAddr::new(0)));
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn sampling_registers_only_sampled_sets() {
        let cfg = CacheConfig::new(1024, 16, 1).unwrap(); // 64 sets
        let sample = SetSample::new(8, SeedSeq::new(2));
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1)).with_sampling(sample);
        let mut traps = TrapMap::new(1 << 20, 16);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        // 256 lines per page, 1/8 sampled -> exactly 32 traps.
        assert_eq!(traps.count(), 32);
        assert_eq!(tw.stats().expansion(), 8.0);
        tw.validate_invariant(&traps).unwrap();
    }

    #[test]
    fn sampled_misses_expand_in_estimates() {
        let cfg = CacheConfig::new(1024, 16, 1).unwrap();
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1))
            .with_sampling(SetSample::new(4, SeedSeq::new(0)));
        let mut traps = TrapMap::new(1 << 20, 16);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        // Miss on the first trapped line we can find.
        let g = traps.iter_trapped().next().unwrap();
        let pa = PhysAddr::new(g * 16);
        tw.handle_miss(
            &mut traps,
            Component::User,
            Tid::new(1),
            VirtAddr::new(pa.raw()),
            pa,
        );
        assert_eq!(tw.stats().raw_total(), 1);
        assert_eq!(tw.stats().estimated_total(), 4.0);
    }

    #[test]
    fn overhead_accumulates_per_table5() {
        let (mut tw, mut traps) = setup(1024);
        let tid = Tid::new(1);
        let reg = tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let miss = tw.handle_miss(
            &mut traps,
            Component::User,
            tid,
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        assert_eq!(miss, 246);
        assert_eq!(tw.overhead_cycles(), reg + miss);
    }

    #[test]
    fn phase_split_accounts_for_every_overhead_cycle() {
        let (mut tw, mut traps) = setup(1024); // 64 lines
        let tid = Tid::new(1);
        tw.tw_register_page(&mut traps, tid, Pfn::new(0), 0);
        let a = PhysAddr::new(0);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(0), a);
        assert_eq!(tw.last_victim(), None, "cold miss displaces nothing");
        // Conflicting line in a 1K DM cache evicts line 0.
        let b = PhysAddr::new(1024);
        tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(1024), b);
        assert_eq!(tw.last_victim(), Some(a));
        assert_eq!(
            tw.handler_cycles() + tw.replacement_cycles(),
            tw.overhead_cycles(),
            "phase split must account for every overhead cycle"
        );
        assert!(tw.handler_cycles() > 0 && tw.replacement_cycles() > 0);
    }

    #[test]
    fn vm_event_dispatch_matches_primitives() {
        let (mut tw, mut traps) = setup(1024);
        let ev = VmEvent::PageRegistered {
            tid: Tid::new(1),
            pfn: Pfn::new(3),
            vpn: 9,
        };
        tw.on_vm_event(&mut traps, ev);
        assert_eq!(tw.registered_pages(), 1);
        let ev = VmEvent::PageRemoved {
            tid: Tid::new(1),
            pfn: Pfn::new(3),
            vpn: 9,
        };
        tw.on_vm_event(&mut traps, ev);
        assert_eq!(tw.registered_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "unregistered page")]
    fn removing_unregistered_page_panics() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_remove_page(&mut traps, Tid::new(1), Pfn::new(9), 0);
    }

    #[test]
    #[should_panic(expected = "before registration")]
    fn late_sampling_configuration_panics() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        let _ = tw.with_sampling(SetSample::new(2, SeedSeq::new(0)));
    }

    #[test]
    fn masked_misses_recorded() {
        let (mut tw, _) = setup(1024);
        tw.note_masked_miss();
        assert_eq!(tw.stats().masked(), 1);
    }

    #[test]
    fn reset_counters_keeps_registrations() {
        let (mut tw, mut traps) = setup(1024);
        tw.tw_register_page(&mut traps, Tid::new(1), Pfn::new(0), 0);
        tw.handle_miss(
            &mut traps,
            Component::User,
            Tid::new(1),
            VirtAddr::new(0),
            PhysAddr::new(0),
        );
        tw.reset_counters();
        assert_eq!(tw.stats().raw_total(), 0);
        assert_eq!(tw.overhead_cycles(), 0);
        assert_eq!(tw.registered_pages(), 1);
    }
}
