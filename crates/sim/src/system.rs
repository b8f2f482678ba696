//! The full-system trial engine.
//!
//! One [`TrialRunner::run`] boots the simulated machine and OS, starts the
//! workload's task tree, and interleaves the kernel, server and user
//! reference streams in the Table 4 proportions until each component's
//! instruction budget is spent. Every reference goes through the VM
//! system (demand paging, page registration) and the host trap check,
//! so misses, slowdown, masked-trap bias and clock-interrupt pollution
//! all emerge from the mechanism rather than from closed-form
//! formulas.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;

use tapeworm_core::{SetSample, Tapeworm, TlbSim, TwoLevelTapeworm};
use tapeworm_machine::{AccessKind, Component, FetchOutcome, Machine, MachineConfig, Monster};
use tapeworm_mem::{
    ColoringAllocator, FrameAllocator, PhysAddr, RandomAllocator, SequentialAllocator, VirtAddr,
};
use tapeworm_obs::{
    CounterId, Counters, Phase, PhaseCycles, TrapEvent, TrapKind, TrapRing, TrialMetrics,
};
use tapeworm_os::{Os, OsConfig, OutOfMemoryError, TapewormAttrs, Tid, Translation, VmEvent};
use tapeworm_stats::SeedSeq;
use tapeworm_trace::{Cache2000Config, KernelTraceBuffer, KernelTraceBufferConfig};
use tapeworm_workload::{
    DataParams, DataRef, DataStream, ProcStream, RefStream, WorkloadSpec, BSD_TEXT_BASE,
    DATA_SEGMENT_OFFSET, KERNEL_TEXT_BASE, USER_TEXT_BASE, X_TEXT_BASE,
};

use crate::config::{AllocPolicy, SimModel, SystemConfig};
use crate::result::TrialResult;

/// A trial aborted on an infeasible configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialError {
    /// The workload's footprint exceeded physical memory: the VM found
    /// no free frame on a demand-map.
    OutOfFrames {
        /// The underlying VM error (faulting task and page).
        source: OutOfMemoryError,
        /// The configured frame count.
        frames: usize,
    },
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::OutOfFrames { source, frames } => write!(
                f,
                "out of physical frames mapping vpn {:#x} for {}: the workload's \
                 footprint does not fit in {frames} frames — raise `SystemConfig::frames`",
                source.vpn, source.tid
            ),
        }
    }
}

impl Error for TrialError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrialError::OutOfFrames { source, .. } => Some(source),
        }
    }
}

/// The one trial entry point: boots the simulated machine and OS for a
/// [`SystemConfig`], runs it to completion and returns a [`TrialRun`].
///
/// * `base` seeds everything that must stay fixed across trials
///   (reference streams, simulated-cache RNG).
/// * `trial` seeds the run-to-run system effects (physical frame
///   allocation, set-sample choice).
///
/// Counters and the per-phase cycle account are always collected; the
/// trap-event ring ([`observe`](Self::observe)) and continuous-monitoring
/// windows ([`window`](Self::window)) are opt-in. Neither perturbs the
/// simulation: [`TrialRun::result`] is bit-identical with them on or off.
///
/// A runner owns its engine scratch — trap bitmap and frame counts,
/// page tables, translation cache, data-reference buffer — and salvages
/// it after every trial, so a worker that reuses one runner allocates
/// those buffers once instead of once per trial. Reuse is
/// bit-identical: every buffer is reset to boot state (pinned by
/// tests), also after a trial that failed. Not shared between threads:
/// each worker owns one.
#[derive(Debug, Default)]
pub struct TrialRunner {
    obs: ObsConfig,
    window: Option<NonZeroU64>,
    scratch: TrialScratch,
}

/// Everything one trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRun {
    /// The simulated measurement: miss counts, cycle accounting,
    /// slowdown.
    pub result: TrialResult,
    /// The layered counter registry, the per-phase cycle account and
    /// the drained trap-event ring (empty unless
    /// [`TrialRunner::observe`] enabled it).
    pub metrics: TrialMetrics,
    /// Continuous-monitoring samples (empty unless
    /// [`TrialRunner::window`] enabled them).
    pub windows: Vec<WindowSample>,
}

impl TrialRunner {
    /// A runner with the ring and windows off and an empty scratch;
    /// the first trial populates the scratch.
    pub fn new() -> Self {
        TrialRunner::default()
    }

    /// Records up to `obs.ring_capacity` trap events per trial.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Samples the raw miss count every `instructions` executed
    /// instructions — the paper's continuous-monitoring mode, feasible
    /// precisely because Tapeworm's slowdowns "can be made
    /// imperceptible to the user".
    pub fn window(mut self, instructions: NonZeroU64) -> Self {
        self.window = Some(instructions);
        self
    }

    /// Runs one trial.
    ///
    /// # Errors
    ///
    /// [`TrialError::OutOfFrames`] when the workload's footprint exceeds
    /// `SystemConfig::frames`.
    pub fn run(
        &mut self,
        cfg: &SystemConfig,
        base: SeedSeq,
        trial: SeedSeq,
    ) -> Result<TrialRun, TrialError> {
        // An engine that fails to boot (OutOfFrames during text pre-map)
        // consumes the scratch; the next trial simply reallocates. That
        // path is cold and already aborting the trial.
        let mut engine = Engine::new(cfg, base, trial, &mut self.scratch)?;
        engine.ring = TrapRing::new(self.obs.ring_capacity);
        engine.window = self.window.map(|period| Windows {
            period: period.get(),
            samples: Vec::new(),
            closed_misses: 0,
        });
        let out = engine.run_collect();
        engine.recycle(&mut self.scratch);
        out
    }
}

/// Persistent engine scratch, salvaged when a trial finishes and reused
/// by the runner's next one (see [`TrialRunner`]).
#[derive(Debug, Default)]
struct TrialScratch {
    machine: Option<tapeworm_machine::MachineScratch>,
    vm: Option<tapeworm_os::VmScratch>,
    data: Vec<DataRef>,
}

/// Observability options for [`TrialRunner::observe`].
///
/// Counter and phase-cycle collection is always on (the underlying
/// counters are plain branch-free integer increments); this only
/// controls the optional trap-event ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Capacity of the bounded trap-event ring. `0` (the default)
    /// disables event recording entirely; a full ring overwrites its
    /// oldest events and counts the loss.
    pub ring_capacity: usize,
}

impl ObsConfig {
    /// An observability configuration recording up to `capacity` trap
    /// events.
    pub fn with_ring(capacity: usize) -> Self {
        ObsConfig {
            ring_capacity: capacity,
        }
    }
}

/// One continuous-monitoring window (§5: "the use of continuous
/// monitoring and simulation opens up the possibility of using these
/// results to perform real-time hardware and software tuning").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Instructions executed when the window closed.
    pub end_instructions: u64,
    /// Raw misses observed *within* this window.
    pub misses: u64,
}

impl WindowSample {
    /// Each window's miss ratio over the instructions it actually
    /// spans: its end minus the previous window's end (the first
    /// window starts at 0). A window closes at the first quantum
    /// boundary past its nominal period, so the span is not the period.
    /// An empty span (it saw no misses either) reads `0.0`.
    pub fn miss_ratios(windows: &[WindowSample]) -> impl Iterator<Item = f64> + '_ {
        windows.iter().scan(0, |previous_end, w| {
            let span = w.end_instructions - std::mem::replace(previous_end, w.end_instructions);
            Some(w.misses as f64 / span.max(1) as f64)
        })
    }
}

/// Continuous-monitoring state of one engine: the window period, the
/// samples closed so far and their running miss total.
#[derive(Debug)]
struct Windows {
    period: u64,
    samples: Vec<WindowSample>,
    closed_misses: u64,
}

enum Sim {
    Cache(Tapeworm),
    TwoLevel(TwoLevelTapeworm),
    Split { icache: Tapeworm, dcache: Tapeworm },
    Tlb(TlbSim),
    Buffer(KernelTraceBuffer),
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sim::Cache(_) => f.write_str("Sim::Cache"),
            Sim::TwoLevel(_) => f.write_str("Sim::TwoLevel"),
            Sim::Split { .. } => f.write_str("Sim::Split"),
            Sim::Tlb(_) => f.write_str("Sim::Tlb"),
            Sim::Buffer(_) => f.write_str("Sim::Buffer"),
        }
    }
}

struct UserTask {
    tid: Tid,
    stream: ProcStream,
    /// Load/store generator (split-cache simulations only).
    data: Option<DataStream>,
    /// Instructions left before this task exits (u64::MAX = run to the
    /// end of the workload).
    quota: u64,
}

struct Engine<'c> {
    cfg: &'c SystemConfig,
    spec: &'static WorkloadSpec,
    base: SeedSeq,
    os: Os,
    machine: Machine,
    monster: Monster,
    sim: Sim,
    kernel_stream: ProcStream,
    bsd_stream: ProcStream,
    x_stream: ProcStream,
    irq_stream: ProcStream,
    /// Per-component data streams (split-cache simulations only),
    /// indexed like [`Component::ALL`]; the user slot is unused (each
    /// user task carries its own).
    data_streams: [Option<DataStream>; 4],
    users: Vec<UserTask>,
    next_user: usize,
    shell: Tid,
    users_created: u32,
    text_registry: HashMap<u64, tapeworm_mem::Pfn>,
    /// Per-component instruction budgets (Component::index order).
    budgets: [u64; 4],
    /// Instruction share of one (non-final) user task.
    user_quota: u64,
    /// Fixed-point CPI accumulator (millicycles).
    cpi_acc_milli: u64,
    in_interrupt: bool,
    chunk_bytes: u64,
    /// Trap-service walk enabled (`SystemConfig::fast_path` and the
    /// `TW_FAST` env knob both allow it).
    fast_enabled: bool,
    /// Clean runs retired through the walk's fast batches.
    fast_runs: u64,
    /// Words retired through the walk's fast batches.
    fast_words: u64,
    /// Flushes of the trap-service walk (one retire/advance each).
    walk_flushes: u64,
    /// Clock ticks that fired but exceeded the per-interval delivery
    /// bound in [`Engine::advance`] (previously dropped silently).
    ticks_dropped: u64,
    /// Page size in bytes, hoisted out of the per-chunk loop.
    page_bytes: u64,
    /// Reusable buffer for one quantum's data references — the hot
    /// loop never allocates.
    data_scratch: Vec<DataRef>,
    /// Continuous-monitoring state (`None` = windows off).
    window: Option<Windows>,
    /// Bounded trap-event ring (capacity 0 = disabled, the default).
    ring: TrapRing,
    /// Scheduler quanta dispatched by the round-robin loop.
    sched_quanta: u64,
}

impl<'c> Engine<'c> {
    fn new(
        cfg: &'c SystemConfig,
        base: SeedSeq,
        trial: SeedSeq,
        scratch: &mut TrialScratch,
    ) -> Result<Self, TrialError> {
        let spec = cfg.workload.spec();
        let page = tapeworm_mem::PageSize::DEFAULT;
        // The fast path assumes "frame clean" covers exactly the page a
        // run resides in.
        debug_assert_eq!(page.bytes(), tapeworm_mem::TrapMap::FRAME_BYTES);

        let allocator: Box<dyn FrameAllocator> = match cfg.alloc {
            AllocPolicy::Random => Box::new(RandomAllocator::new(cfg.frames, trial)),
            AllocPolicy::Sequential => Box::new(SequentialAllocator::new(cfg.frames)),
            AllocPolicy::Coloring(colors) => {
                Box::new(ColoringAllocator::new(cfg.frames, colors, trial))
            }
        };
        let sparse_enabled =
            cfg.sparse_mem && std::env::var("TW_SPARSE").map_or(true, |v| v != "0");
        let mut os = Os::boot_reusing(
            OsConfig {
                page_size: page,
                frames: cfg.frames,
                sparse_mem: sparse_enabled,
            },
            allocator,
            scratch.vm.take().unwrap_or_default(),
        );

        let (trap_granule, chunk_bytes) = match cfg.model {
            SimModel::Cache(c) => (c.line_bytes(), c.line_bytes()),
            SimModel::TwoLevelCache(l1, _) => (l1.line_bytes(), l1.line_bytes()),
            SimModel::SplitCache { icache, dcache } => {
                assert_eq!(
                    icache.line_bytes(),
                    dcache.line_bytes(),
                    "split caches must share a trap granule (line size)"
                );
                (icache.line_bytes(), icache.line_bytes())
            }
            SimModel::Tlb(_) => (16, page.bytes()),
            SimModel::KernelTraceBuffer(c) => (c.line_bytes(), c.line_bytes()),
        };
        let machine = Machine::new_reusing(
            MachineConfig {
                mem_bytes: cfg.frames as u64 * page.bytes(),
                trap_granule,
                clock_period: cfg.clock_period,
                breakpoint_registers: 4,
                write_policy: cfg.write_policy,
                sparse_mem: sparse_enabled,
            },
            scratch.machine.take().unwrap_or_default(),
        );

        let sim = match cfg.model {
            SimModel::Cache(c) => {
                let sample = if cfg.sample_denominator > 1 {
                    SetSample::new(cfg.sample_denominator, trial)
                } else {
                    SetSample::full()
                };
                Sim::Cache(
                    Tapeworm::new(c, page.bytes(), base.derive("tapeworm", 0))
                        .with_sampling(sample)
                        .with_cost(cfg.cost.model()),
                )
            }
            SimModel::TwoLevelCache(l1, l2) => Sim::TwoLevel(TwoLevelTapeworm::new(
                l1,
                l2,
                page.bytes(),
                base.derive("tapeworm2l", 0),
            )),
            SimModel::SplitCache { icache, dcache } => Sim::Split {
                icache: Tapeworm::new(icache, page.bytes(), base.derive("tapeworm-i", 0))
                    .with_cost(cfg.cost.model()),
                dcache: Tapeworm::new(dcache, page.bytes(), base.derive("tapeworm-d", 0))
                    .with_cost(cfg.cost.model()),
            },
            SimModel::Tlb(t) => Sim::Tlb(TlbSim::new(t, page, base.derive("tlbsim", 0))),
            SimModel::KernelTraceBuffer(c) => Sim::Buffer(KernelTraceBuffer::new(
                KernelTraceBufferConfig::with_cache(Cache2000Config::with_geometry(
                    c.size_bytes(),
                    c.line_bytes(),
                    c.associativity(),
                )),
            )),
        };
        let split = matches!(cfg.model, SimModel::SplitCache { .. });

        // Tapeworm attributes per the measured component set.
        let on = |sim: bool| TapewormAttrs {
            simulate: sim,
            inherit: false,
        };
        os.tw_attributes(Tid::KERNEL, on(cfg.measured.contains(Component::Kernel)))
            .expect("kernel exists");
        let bsd = os.bsd_server();
        let x = os.x_server();
        os.tw_attributes(bsd, on(cfg.measured.contains(Component::BsdServer)))
            .expect("bsd server exists");
        os.tw_attributes(x, on(cfg.measured.contains(Component::XServer)))
            .expect("x server exists");

        // The workload shell: excluded from simulation itself, children
        // inherit per the measured set — the paper's canonical
        // (simulate=0, inherit=1) usage.
        let shell = os.spawn_user().expect("room for the shell");
        os.tw_attributes(
            shell,
            TapewormAttrs {
                simulate: false,
                inherit: cfg.measured.contains(Component::User),
            },
        )
        .expect("shell exists");

        // Pre-map shared text through the immortal shell so text frames
        // are stable for the whole run.
        let mut text_registry = HashMap::new();
        if spec.shared_text {
            let pages = spec.user_stream.footprint_bytes.div_ceil(page.bytes());
            for i in 0..pages {
                let vpn = USER_TEXT_BASE / page.bytes() + i;
                let (pfn, _ev) =
                    os.vm_mut()
                        .map_new(shell, vpn)
                        .map_err(|source| TrialError::OutOfFrames {
                            source,
                            frames: cfg.frames,
                        })?;
                text_registry.insert(vpn, pfn);
            }
        }

        // Component instruction budgets from the Table 4 fractions.
        let total = spec.scaled_instructions(cfg.scale);
        let budget = |f: f64| (total as f64 * f).round() as u64;
        let budgets = [
            budget(spec.frac_kernel),
            budget(spec.frac_bsd),
            budget(spec.frac_x),
            budget(spec.frac_user),
        ];

        let user_quota =
            (budgets[Component::User.index()] / u64::from(spec.user_task_count.max(1))).max(1);
        let mut engine = Engine {
            cfg,
            spec,
            base,
            os,
            machine,
            monster: Monster::new(),
            sim,
            kernel_stream: ProcStream::new(
                KERNEL_TEXT_BASE,
                spec.kernel_stream,
                base.derive("kernel-stream", 0),
            ),
            bsd_stream: ProcStream::new(
                BSD_TEXT_BASE,
                spec.bsd_stream,
                base.derive("bsd-stream", 0),
            ),
            x_stream: ProcStream::new(X_TEXT_BASE, spec.x_stream, base.derive("x-stream", 0)),
            irq_stream: ProcStream::new(
                KERNEL_TEXT_BASE,
                spec.kernel_stream,
                base.derive("irq-stream", 0),
            ),
            data_streams: if split {
                let mk = |text_base: u64, text: u64, label: u64| {
                    Some(DataStream::new(
                        text_base + DATA_SEGMENT_OFFSET,
                        DataParams::default_for_text(text),
                        base.derive("data-stream", label),
                    ))
                };
                [
                    mk(KERNEL_TEXT_BASE, spec.kernel_stream.footprint_bytes, 0),
                    mk(BSD_TEXT_BASE, spec.bsd_stream.footprint_bytes, 1),
                    mk(X_TEXT_BASE, spec.x_stream.footprint_bytes, 2),
                    None,
                ]
            } else {
                [None, None, None, None]
            },
            users: Vec::new(),
            next_user: 0,
            shell,
            users_created: 0,
            text_registry,
            budgets,
            user_quota,
            cpi_acc_milli: 0,
            in_interrupt: false,
            chunk_bytes,
            fast_enabled: cfg.fast_path && std::env::var("TW_FAST").map_or(true, |v| v != "0"),
            fast_runs: 0,
            fast_words: 0,
            walk_flushes: 0,
            ticks_dropped: 0,
            page_bytes: page.bytes(),
            data_scratch: {
                let mut data = std::mem::take(&mut scratch.data);
                data.clear();
                data
            },
            window: None,
            ring: TrapRing::new(0),
            sched_quanta: 0,
        };
        let initial = spec.concurrent_tasks.min(spec.user_task_count.max(1));
        for _ in 0..initial {
            engine.fork_user();
        }
        Ok(engine)
    }

    /// Returns the engine's reusable allocations to `scratch` for the
    /// worker's next trial.
    fn recycle(self, scratch: &mut TrialScratch) {
        scratch.machine = Some(self.machine.into_scratch());
        scratch.vm = Some(self.os.into_scratch());
        scratch.data = self.data_scratch;
    }

    fn fork_user(&mut self) {
        let tid = self.os.fork(self.shell).expect("task table has room");
        let i = u64::from(self.users_created);
        self.users_created += 1;
        // The final concurrent batch runs to the end of the workload;
        // earlier tasks exit after an equal share of the user budget.
        let quota = if self.users_created >= self.spec.user_task_count {
            u64::MAX
        } else {
            self.user_quota
        };
        let data = matches!(self.cfg.model, SimModel::SplitCache { .. }).then(|| {
            DataStream::new(
                USER_TEXT_BASE + DATA_SEGMENT_OFFSET,
                DataParams::default_for_text(self.spec.user_stream.footprint_bytes),
                self.base.derive("user-data", i),
            )
        });
        self.users.push(UserTask {
            tid,
            stream: ProcStream::new(
                USER_TEXT_BASE,
                self.spec.user_stream,
                self.base.derive("user-task", i),
            ),
            data,
            quota,
        });
    }

    fn exit_user(&mut self, index: usize) -> Result<(), TrialError> {
        let task = self.users.remove(index);
        let events = self.os.exit(task.tid).expect("live task exits");
        for ev in events {
            self.forward_event(ev)?;
        }
        if self.users_created < self.spec.user_task_count {
            self.fork_user();
        }
        Ok(())
    }

    fn forward_event(&mut self, ev: VmEvent) -> Result<(), TrialError> {
        let is_data = match ev {
            VmEvent::PageRegistered { vpn, .. } | VmEvent::PageRemoved { vpn, .. } => {
                is_data_va(vpn * self.page_bytes)
            }
        };
        let cycles = match &mut self.sim {
            Sim::Cache(tw) => tw.on_vm_event(self.machine.traps_mut(), ev),
            Sim::TwoLevel(tw) => tw.on_vm_event(self.machine.traps_mut(), ev),
            Sim::Split { icache, dcache } => {
                let side = if is_data { dcache } else { icache };
                side.on_vm_event(self.machine.traps_mut(), ev)
            }
            Sim::Tlb(ts) => {
                ts.on_vm_event(self.os.vm_mut(), ev);
                0
            }
            // The trace buffer needs no page registration: it sees
            // every reference directly.
            Sim::Buffer(_) => 0,
        };
        if cycles > 0 {
            self.advance(0, cycles)?;
        }
        Ok(())
    }

    /// Processes a batch of data references against the simulated data
    /// cache (split mode only).
    fn exec_data_refs(
        &mut self,
        component: Component,
        tid: Tid,
        refs: &[DataRef],
    ) -> Result<(), TrialError> {
        for &r in refs {
            let pa = self.touch(component, tid, r.va)?;
            let kind = if r.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let mut overhead = 0;
            match self.machine.access(kind, r.va, pa) {
                FetchOutcome::Run => {}
                FetchOutcome::EccTrap => {
                    if let Sim::Split { dcache, .. } = &mut self.sim {
                        overhead =
                            dcache.handle_miss(self.machine.traps_mut(), component, tid, r.va, pa);
                    }
                    if self.ring.enabled() {
                        self.record_trap(TrapKind::Data, tid, r.va, self.machine.now());
                    }
                }
                FetchOutcome::MaskedEccSkipped => {
                    if let Sim::Split { dcache, .. } = &mut self.sim {
                        dcache.note_masked_miss();
                    }
                }
                // The §4.4 hazard: the store destroyed the trap and the
                // simulated data cache silently loses this miss. The
                // machine's counter records the damage.
                FetchOutcome::WriteTrapDestroyed => {}
                FetchOutcome::Breakpoint => unreachable!("no breakpoints armed"),
            }
            if overhead > 0 {
                self.advance(0, overhead)?;
            }
        }
        Ok(())
    }

    /// Translates (and demand-maps) one chunk-aligned address through
    /// the VM's translation cache.
    fn touch(
        &mut self,
        component: Component,
        tid: Tid,
        va: VirtAddr,
    ) -> Result<PhysAddr, TrialError> {
        loop {
            match self.os.vm_mut().translate_cached(tid, va) {
                Translation::Mapped(pa) => return Ok(pa),
                Translation::TapewormPageTrap(_) => {
                    let vpn = va.page_number(self.page_bytes);
                    let cycles = match &mut self.sim {
                        Sim::Tlb(ts) => ts.handle_page_trap(self.os.vm_mut(), component, tid, vpn),
                        _ => unreachable!("valid bits are only cleared in TLB mode"),
                    };
                    if self.ring.enabled() {
                        self.record_trap(TrapKind::Tlb, tid, va, self.machine.now());
                    }
                    self.advance(0, cycles)?;
                }
                Translation::NotMapped => {
                    let vpn = va.page_number(self.page_bytes);
                    let shared = component == Component::User
                        && self.spec.shared_text
                        && self.text_registry.contains_key(&vpn);
                    let ev = if shared {
                        let pfn = self.text_registry[&vpn];
                        self.os.vm_mut().map_shared(tid, vpn, pfn)
                    } else {
                        let (_pfn, ev) = self.os.vm_mut().map_new(tid, vpn).map_err(|source| {
                            TrialError::OutOfFrames {
                                source,
                                frames: self.cfg.frames,
                            }
                        })?;
                        ev
                    };
                    if self.os.is_simulated(tid) {
                        self.forward_event(ev)?;
                    }
                }
            }
        }
    }

    /// Records one trap event stamped `cycle` in the ring, pulling the
    /// victim from whichever simulator just handled the miss. Called
    /// only on the (cold) trap path, and only when the ring is enabled.
    #[cold]
    fn record_trap(&mut self, kind: TrapKind, tid: Tid, va: VirtAddr, cycle: u64) {
        let victim = match (&self.sim, kind) {
            (Sim::Cache(tw), _) => tw.last_victim().map(|pa| pa.raw()),
            (Sim::Split { dcache, .. }, TrapKind::Data) => dcache.last_victim().map(|pa| pa.raw()),
            (Sim::Split { icache, .. }, _) => icache.last_victim().map(|pa| pa.raw()),
            (Sim::Tlb(ts), _) => ts.last_victim(),
            // No victim tracking for the two-level hierarchy or the
            // annotated trace buffer.
            (Sim::TwoLevel(_) | Sim::Buffer(_), _) => None,
        };
        self.ring.record(TrapEvent {
            cycle,
            tid: tid.raw(),
            vpn: va.page_number(self.page_bytes),
            kind,
            victim,
        });
    }

    /// Executes `words` sequential fetches starting at `va` for a
    /// component, charging workload time and handling traps.
    fn exec_words(
        &mut self,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        words: u32,
    ) -> Result<(), TrialError> {
        let mut remaining = u64::from(words);
        let mut va = va;
        // Page-local translation memo `(vpn, pa − va)`: consecutive
        // chunks of one run usually share a page, so most chunks skip
        // even the translation cache. Mappings cannot change under a
        // running quantum (exits happen between quanta; interrupts
        // only *add* kernel mappings), and in TLB mode — where valid
        // bits do flip mid-run — a chunk is a whole page, so the memo
        // is never reused there. Bit-exact by construction.
        let mut memo: Option<(u64, u64)> = None;
        // TLB mode never reaches machine.access here (and a chunk is a
        // whole page); the trace buffer pays per reference by design.
        // Both, and `fast_path = false`, keep the stepwise loop below,
        // which is the reference the walk is pinned against.
        let walk = self.fast_enabled && !matches!(self.sim, Sim::Tlb(_) | Sim::Buffer(_));
        while remaining > 0 {
            let vpn = va.page_number(self.page_bytes);
            let pa = match memo {
                Some((m_vpn, delta)) if m_vpn == vpn => PhysAddr::new(va.raw().wrapping_add(delta)),
                _ => {
                    let pa = self.touch(component, tid, va)?;
                    memo = Some((vpn, pa.raw().wrapping_sub(va.raw())));
                    pa
                }
            };
            if walk {
                let seg = remaining
                    .min(((vpn + 1) * self.page_bytes - va.raw()) / tapeworm_mem::WORD_BYTES);
                // A frame with no traps at all (every page of an
                // unsimulated component) takes one O(1) count load and
                // one tick-budget check; anything else walks.
                if self.machine.frame_clean(pa) {
                    let w = self.first_chunk_words(va, seg);
                    if let Some((batch, chunks)) = self.clean_batch(va, w, seg, self.cpi_acc_milli)
                    {
                        self.fast_runs += 1;
                        self.fast_words += batch;
                        self.flush(component, batch, chunks, 0)?;
                        va += batch * tapeworm_mem::WORD_BYTES;
                        remaining -= batch;
                        continue;
                    }
                }
                let done = self.walk_segment(component, tid, va, pa, seg)?;
                va += done * tapeworm_mem::WORD_BYTES;
                remaining -= done;
                continue;
            }

            let chunk_end = va.line_base(self.chunk_bytes) + self.chunk_bytes;
            let w = remaining.min((chunk_end - va) / tapeworm_mem::WORD_BYTES);
            let mut overhead = 0u64;
            if let Sim::Buffer(kt) = &mut self.sim {
                // The annotated system records every fetch (all
                // components), paying per reference.
                for i in 0..w {
                    kt.reference(component, va + i * tapeworm_mem::WORD_BYTES);
                }
            } else if !matches!(self.sim, Sim::Tlb(_)) {
                let outcome = self.machine.access(AccessKind::IFetch, va, pa);
                if outcome != FetchOutcome::Run {
                    overhead = self.service_fetch(outcome, component, tid, va, pa, 0);
                }
            }

            self.flush(component, w, 0, overhead)?;
            va += w * tapeworm_mem::WORD_BYTES;
            remaining -= w;
        }
        Ok(())
    }

    /// The trap-service walk: executes up to `seg` words of one page
    /// segment starting at `va` (physical `pa`) and returns how many it
    /// retired (always at least the first chunk).
    ///
    /// The walk moves chunk by chunk and keeps the bookkeeping pending:
    /// * a clean stretch — a [`Machine::clean_span`] scan of the live
    ///   trap bitmap covers the chunk — retires as one fast run of
    ///   whole chunks whose cycles stay strictly short of the next tick
    ///   (the chunk that would reach the tick goes through the probe
    ///   below and is not counted as fast);
    /// * any other chunk is probed through [`Machine::access`], which
    ///   counts it exactly as the stepwise loop does, and a trap is
    ///   serviced inline by the plain miss handler.
    ///
    /// Words, workload cycles and handler overhead are flushed with one
    /// retire, one [`Monster::record`] and one [`Engine::advance`] — at
    /// the end of the segment, or right after the chunk whose cycles
    /// reach the next tick. Bit-exactness by construction:
    /// * before that chunk no stepwise advance could fire a tick, and
    ///   the deferred advance lands on the same cycle with the same
    ///   ticks (CPI accumulation telescopes:
    ///   `Σ⌊·/1000⌋` over chunks equals one `⌊Σ/1000⌋` when the
    ///   remainders carry), so interrupts are delivered at the stepwise
    ///   positions — even for the two-level hierarchy, whose handler
    ///   cost varies, because the check runs after the charge;
    /// * trap state is re-read per chunk, so victims re-armed ahead of
    ///   the walk (small caches) are seen exactly when stepwise would
    ///   see them;
    /// * `lag` is the millicycle distance from the machine clock to
    ///   the stepwise clock — CPI accumulator plus pending words times
    ///   CPI plus 1000 × pending dilated overhead — so ring events and
    ///   the clean-stretch tick budget read the stepwise values;
    /// * the clean stretch applies the stepwise batching rule to that
    ///   virtual clock, so `FastRuns`/`FastWords` (digest-frozen) count
    ///   exactly the batches a flushed engine would, trailing partial
    ///   chunk included.
    ///
    /// Kept out of line: inlined, it slows the clean-frame path of
    /// [`Engine::exec_words`] measurably on hit-bound configurations.
    #[inline(never)]
    fn walk_segment(
        &mut self,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        pa: PhysAddr,
        seg: u64,
    ) -> Result<u64, TrialError> {
        const WORD: u64 = tapeworm_mem::WORD_BYTES;
        let cpi = self.cfg.base_cpi_milli;
        let delta = pa.raw().wrapping_sub(va.raw());
        let until_milli = self.machine.cycles_until_tick().saturating_mul(1000);
        let dilate_milli = if self.cfg.dilate { 1000 } else { 0 };
        let mut lag = self.cpi_acc_milli;
        let mut words = 0u64;
        let mut clean_chunks = 0u64;
        let mut overhead = 0u64;
        let mut cva = va;
        while words < seg {
            let left = seg - words;
            let cw = self.first_chunk_words(cva, left);
            let cpa = PhysAddr::new(cva.raw().wrapping_add(delta));
            let span = self.machine.clean_span(cpa, left * WORD) / WORD;
            if span >= cw {
                if let Some((batch, chunks)) = self.clean_batch(cva, cw, span, lag) {
                    self.fast_runs += 1;
                    self.fast_words += batch;
                    clean_chunks += chunks;
                    words += batch;
                    lag += batch * cpi;
                    cva += batch * WORD;
                    continue;
                }
            }
            let outcome = self.machine.access(AccessKind::IFetch, cva, cpa);
            if outcome != FetchOutcome::Run {
                let ov = self.service_fetch(outcome, component, tid, cva, cpa, lag);
                overhead += ov;
                lag += ov * dilate_milli;
            }
            words += cw;
            lag += cw * cpi;
            cva += cw * WORD;
            if lag >= until_milli {
                break; // this chunk reaches the tick: flush now
            }
        }
        self.walk_flushes += 1;
        self.flush(component, words, clean_chunks, overhead)?;
        Ok(words)
    }

    /// Words from `va` to the end of its chunk, capped at `max`.
    #[inline]
    fn first_chunk_words(&self, va: VirtAddr, max: u64) -> u64 {
        let into_chunk = va.raw() & (self.chunk_bytes - 1);
        max.min((self.chunk_bytes - into_chunk) / tapeworm_mem::WORD_BYTES)
    }

    /// The resident-run batching rule: given a trap-free `span` of
    /// words at `va` whose first chunk holds `w` words, and the clock
    /// `lag_milli` millicycles behind the stepwise clock, the batch is
    /// the first chunk plus every whole chunk whose cycles stay
    /// strictly short of the next tick — `(words, chunks)` — or `None`
    /// when the first chunk would already reach the tick (it is then
    /// probed instead) or a breakpoint overlaps.
    #[inline]
    fn clean_batch(&self, va: VirtAddr, w: u64, span: u64, lag_milli: u64) -> Option<(u64, u64)> {
        let cpi = self.cfg.base_cpi_milli;
        // Largest word count with lag + n·cpi < until·1000; the caller
        // keeps lag below until·1000, so the budget is at least 1.
        let w_tick = if cpi == 0 {
            u64::MAX
        } else {
            (self.machine.cycles_until_tick().saturating_mul(1000) - lag_milli - 1) / cpi
        };
        let cap = span.min(w_tick);
        if cap < w {
            return None;
        }
        let chunk_words = self.chunk_bytes / tapeworm_mem::WORD_BYTES;
        let chunks = 1 + (cap - w) / chunk_words;
        let batch = w + (chunks - 1) * chunk_words;
        let clear = !self
            .machine
            .breakpoints_in(va, batch * tapeworm_mem::WORD_BYTES);
        clear.then_some((batch, chunks))
    }

    /// Commits `words` executed instructions in one step: retires them
    /// (with the breakpoint probes of `clean_chunks` batched chunks),
    /// charges their workload cycles to `component` and advances the
    /// clock by those cycles plus `overhead` handler cycles.
    #[inline]
    fn flush(
        &mut self,
        component: Component,
        words: u64,
        clean_chunks: u64,
        overhead: u64,
    ) -> Result<(), TrialError> {
        self.machine.retire_clean_run(words, clean_chunks);
        self.cpi_acc_milli += words * self.cfg.base_cpi_milli;
        let workload_cycles = self.cpi_acc_milli / 1000;
        self.cpi_acc_milli %= 1000;
        self.monster.record(component, words, workload_cycles);
        self.advance(workload_cycles, overhead)
    }

    /// Acts on one instruction fetch's trapping probe outcome (callers
    /// skip [`FetchOutcome::Run`]): an ECC trap runs the simulator's
    /// miss handler (and, with the ring on, records an
    /// event stamped `lag_milli / 1000` cycles past the machine clock —
    /// where the stepwise clock stands); a masked trap is counted as a
    /// lost miss. Returns the handler's overhead cycles. Out of line
    /// for the same reason as [`Engine::walk_segment`].
    #[inline(never)]
    fn service_fetch(
        &mut self,
        outcome: FetchOutcome,
        component: Component,
        tid: Tid,
        va: VirtAddr,
        pa: PhysAddr,
        lag_milli: u64,
    ) -> u64 {
        match outcome {
            FetchOutcome::Run => 0,
            FetchOutcome::EccTrap => {
                let overhead = match &mut self.sim {
                    Sim::Cache(tw) => {
                        tw.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                    }
                    Sim::TwoLevel(tw) => {
                        tw.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                    }
                    Sim::Split { icache, .. } => {
                        icache.handle_miss(self.machine.traps_mut(), component, tid, va, pa)
                    }
                    Sim::Tlb(_) | Sim::Buffer(_) => unreachable!(),
                };
                if self.ring.enabled() {
                    let cycle = self.machine.now() + lag_milli / 1000;
                    self.record_trap(TrapKind::IFetch, tid, va, cycle);
                }
                overhead
            }
            FetchOutcome::MaskedEccSkipped => {
                match &mut self.sim {
                    Sim::Cache(tw) => tw.note_masked_miss(),
                    Sim::Split { icache, .. } => icache.note_masked_miss(),
                    _ => {}
                }
                0
            }
            FetchOutcome::WriteTrapDestroyed | FetchOutcome::Breakpoint => {
                unreachable!("instruction fetches with no breakpoints armed")
            }
        }
    }

    /// Advances wall-clock time and services any clock interrupts. At
    /// most four ticks are delivered per interval (the hardware's
    /// pending-interrupt latch depth); extras are discarded — but no
    /// longer silently: the loss is tallied in `ticks_dropped` and
    /// surfaced as the `clock_ticks_dropped` counter.
    fn advance(&mut self, workload_cycles: u64, overhead_cycles: u64) -> Result<(), TrialError> {
        let dilated = workload_cycles + if self.cfg.dilate { overhead_cycles } else { 0 };
        let fired = self.machine.advance(dilated);
        if fired > 0 && !self.in_interrupt {
            let deliverable = fired.min(4);
            self.ticks_dropped += fired - deliverable;
            for _ in 0..deliverable {
                self.run_interrupt_handler()?;
            }
        }
        Ok(())
    }

    /// The clock-interrupt handler: kernel code that runs on every
    /// tick, polluting the cache — the Figure 4 dilation mechanism.
    /// Its prefix runs with interrupts masked, losing any ECC traps
    /// there (the §4.2 masked-trap bias).
    #[cold]
    fn run_interrupt_handler(&mut self) -> Result<(), TrialError> {
        self.in_interrupt = true;
        let total = self.cfg.interrupt_handler_words;
        let masked = self.cfg.masked_prefix_words.min(total);
        let mut executed = 0u32;
        self.machine.set_interrupts_enabled(false);
        while executed < total {
            let run = self.irq_stream.next_run();
            let w = run.words.min(total - executed);
            if executed < masked && executed + w > masked {
                // Split the run at the unmask boundary.
                let head = masked - executed;
                self.exec_words(Component::Kernel, Tid::KERNEL, run.va, head)?;
                self.machine.set_interrupts_enabled(true);
                self.exec_words(
                    Component::Kernel,
                    Tid::KERNEL,
                    run.va + u64::from(head) * tapeworm_mem::WORD_BYTES,
                    w - head,
                )?;
            } else {
                self.exec_words(Component::Kernel, Tid::KERNEL, run.va, w)?;
                if executed + w >= masked {
                    self.machine.set_interrupts_enabled(true);
                }
            }
            executed += w;
        }
        self.machine.set_interrupts_enabled(true);
        self.in_interrupt = false;
        Ok(())
    }

    /// Runs one scheduling quantum of a component. Returns the number
    /// of instructions executed (0 when the component has nothing to
    /// run).
    fn run_quantum(&mut self, component: Component) -> Result<u64, TrialError> {
        let budget = self.budgets[component.index()];
        if budget == 0 {
            return Ok(0);
        }
        Ok(match component {
            Component::User => {
                if self.users.is_empty() {
                    return Ok(0);
                }
                self.next_user %= self.users.len();
                let idx = self.next_user;
                let run = self.users[idx].stream.next_run();
                let tid = self.users[idx].tid;
                let quota = self.users[idx].quota;
                let w = u64::from(run.words).min(budget).min(quota);
                self.exec_words(component, tid, run.va, w as u32)?;
                if self.users[idx].data.is_some() {
                    let mut refs = std::mem::take(&mut self.data_scratch);
                    refs.clear();
                    self.users[idx]
                        .data
                        .as_mut()
                        .expect("checked above")
                        .refs_into(w, &mut refs);
                    let outcome = self.exec_data_refs(component, tid, &refs);
                    self.data_scratch = refs;
                    outcome?;
                }
                self.budgets[component.index()] -= w;
                let task = &mut self.users[idx];
                task.quota = task.quota.saturating_sub(w);
                if task.quota == 0 {
                    self.exit_user(idx)?;
                } else {
                    self.next_user += 1;
                }
                w
            }
            _ => {
                let stream = match component {
                    Component::Kernel => &mut self.kernel_stream,
                    Component::BsdServer => &mut self.bsd_stream,
                    Component::XServer => &mut self.x_stream,
                    Component::User => unreachable!(),
                };
                let run = stream.next_run();
                let w = u64::from(run.words).min(budget);
                let tid = match component {
                    Component::Kernel => Tid::KERNEL,
                    Component::BsdServer => self.os.bsd_server(),
                    Component::XServer => self.os.x_server(),
                    Component::User => unreachable!(),
                };
                self.exec_words(component, tid, run.va, w as u32)?;
                if self.data_streams[component.index()].is_some() {
                    let mut refs = std::mem::take(&mut self.data_scratch);
                    refs.clear();
                    self.data_streams[component.index()]
                        .as_mut()
                        .expect("checked above")
                        .refs_into(w, &mut refs);
                    let outcome = self.exec_data_refs(component, tid, &refs);
                    self.data_scratch = refs;
                    outcome?;
                }
                self.budgets[component.index()] -= w;
                w
            }
        })
    }

    fn current_raw_misses(&self) -> u64 {
        match &self.sim {
            Sim::Buffer(kt) => kt.total_misses(),
            Sim::Cache(tw) => tw.stats().raw_total(),
            Sim::TwoLevel(tw) => tw.l1_stats().raw_total(),
            Sim::Split { icache, dcache } => {
                icache.stats().raw_total() + dcache.stats().raw_total()
            }
            Sim::Tlb(ts) => ts.stats().raw_total(),
        }
    }

    fn sample_windows(&mut self) {
        let misses_now = self.current_raw_misses();
        let instr_now = self.monster.total_instructions();
        if let Some(w) = &mut self.window {
            let boundary = (w.samples.len() as u64 + 1) * w.period;
            if instr_now >= boundary {
                w.samples.push(WindowSample {
                    end_instructions: instr_now,
                    misses: misses_now - w.closed_misses,
                });
                w.closed_misses = misses_now;
            }
        }
    }

    /// Assembles the trial's observability metrics: counters from every
    /// layer, the per-phase cycle account, and the drained event ring.
    fn collect_metrics(&mut self) -> TrialMetrics {
        let mut counters = Counters::new();
        counters.add(CounterId::TrapEntries, self.machine.trap_entries());
        counters.add(CounterId::TrapsSet, self.machine.traps().set_events());
        counters.add(CounterId::TrapsCleared, self.machine.traps().clear_events());
        counters.add(CounterId::TcacheHits, self.os.vm().tc_hits());
        counters.add(CounterId::TcacheMisses, self.os.vm().tc_misses());
        counters.add(CounterId::PageWalks, self.os.vm().walks());
        counters.add(
            CounterId::BreakpointChecks,
            self.machine.breakpoint_checks(),
        );
        counters.add(CounterId::SchedQuanta, self.sched_quanta);
        counters.add(CounterId::ClockTicksDropped, self.ticks_dropped);
        counters.add(CounterId::FastRuns, self.fast_runs);
        counters.add(CounterId::FastWords, self.fast_words);
        counters.add(CounterId::MissBatchFlushes, self.walk_flushes);
        let sparse = self
            .machine
            .sparse_stats()
            .merge(self.os.vm().sparse_stats());
        counters.add(CounterId::SparseChunksAllocated, sparse.chunks_allocated);
        counters.add(CounterId::ZeroChunksDeduped, sparse.zero_chunks_deduped);
        counters.add(CounterId::ChunkFaults, sparse.chunk_faults);

        let mut phases = PhaseCycles::new();
        phases.add(Phase::Kernel, self.monster.cycles(Component::Kernel));
        phases.add(
            Phase::User,
            self.monster.cycles(Component::BsdServer)
                + self.monster.cycles(Component::XServer)
                + self.monster.cycles(Component::User),
        );
        let (handler, replacement) = match &self.sim {
            Sim::Cache(tw) => (tw.handler_cycles(), tw.replacement_cycles()),
            Sim::Split { icache, dcache } => (
                icache.handler_cycles() + dcache.handler_cycles(),
                icache.replacement_cycles() + dcache.replacement_cycles(),
            ),
            // These simulators model no handler/replacement split; all
            // their overhead is booked as handler time.
            Sim::TwoLevel(tw) => (tw.overhead_cycles(), 0),
            Sim::Tlb(ts) => (ts.overhead_cycles(), 0),
            Sim::Buffer(kt) => (kt.overhead_cycles(), 0),
        };
        phases.add(Phase::Handler, handler);
        phases.add(Phase::Replacement, replacement);

        let events_recorded = self.ring.recorded();
        let events_dropped = self.ring.dropped();
        TrialMetrics {
            counters,
            phases,
            events: self.ring.drain(),
            events_recorded,
            events_dropped,
        }
    }

    fn run_collect(&mut self) -> Result<TrialRun, TrialError> {
        // Smooth weighted round-robin over the components, by the
        // Table 4 time fractions.
        let weights = self.spec.component_weights();
        let mut wrr: Vec<(Component, i64, i64)> = weights
            .iter()
            .filter(|(c, w)| *w > 0 && self.budgets[c.index()] > 0)
            .map(|&(c, w)| (c, i64::from(w), 0i64))
            .collect();
        while !wrr.is_empty() {
            let total: i64 = wrr.iter().map(|(_, w, _)| w).sum();
            for e in &mut wrr {
                e.2 += e.1;
            }
            let best = wrr
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("non-empty wrr");
            wrr[best].2 -= total;
            let component = wrr[best].0;
            self.sched_quanta += 1;
            let executed = self.run_quantum(component)?;
            if self.window.is_some() {
                self.sample_windows();
            }
            if executed == 0 || self.budgets[component.index()] == 0 {
                wrr.retain(|(c, ..)| *c != component);
            }
        }

        let (misses, raw, overhead, masked, l2_misses, data_misses) = match &self.sim {
            Sim::Cache(tw) => (
                Component::ALL.map(|c| tw.stats().estimated_misses(c)),
                Component::ALL.map(|c| tw.stats().raw_misses(c)),
                tw.overhead_cycles(),
                tw.stats().masked(),
                None,
                None,
            ),
            Sim::TwoLevel(tw) => (
                Component::ALL.map(|c| tw.l1_stats().estimated_misses(c)),
                Component::ALL.map(|c| tw.l1_stats().raw_misses(c)),
                tw.overhead_cycles(),
                0,
                Some(Component::ALL.map(|c| tw.l2_stats().estimated_misses(c))),
                None,
            ),
            Sim::Split { icache, dcache } => (
                Component::ALL.map(|c| icache.stats().estimated_misses(c)),
                Component::ALL.map(|c| icache.stats().raw_misses(c)),
                icache.overhead_cycles() + dcache.overhead_cycles(),
                icache.stats().masked() + dcache.stats().masked(),
                None,
                Some(Component::ALL.map(|c| dcache.stats().estimated_misses(c))),
            ),
            Sim::Tlb(ts) => (
                Component::ALL.map(|c| ts.stats().estimated_misses(c)),
                Component::ALL.map(|c| ts.stats().raw_misses(c)),
                ts.overhead_cycles(),
                0,
                None,
                None,
            ),
            Sim::Buffer(kt) => (
                Component::ALL.map(|c| kt.misses(c) as f64),
                Component::ALL.map(|c| kt.misses(c)),
                kt.overhead_cycles(),
                0,
                None,
                None,
            ),
        };
        let result = TrialResult::new(
            misses,
            raw,
            l2_misses,
            data_misses,
            self.machine.write_traps_destroyed(),
            self.monster.total_instructions(),
            self.monster.total_cycles(),
            overhead,
            self.machine.clock_interrupts(),
            masked,
            self.os.vm().faults(),
            u64::from(self.users_created),
        );
        let metrics = self.collect_metrics();
        let windows = self.window.take().map(|w| w.samples).unwrap_or_default();
        Ok(TrialRun {
            result,
            metrics,
            windows,
        })
    }
}

/// Whether a virtual address lies in a data segment. Every component's
/// data segment sits [`DATA_SEGMENT_OFFSET`] above its text base, and
/// all text footprints are far smaller than that offset.
fn is_data_va(va: u64) -> bool {
    let off = if va >= KERNEL_TEXT_BASE {
        va - KERNEL_TEXT_BASE
    } else {
        va
    };
    off >= DATA_SEGMENT_OFFSET
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workload", &self.spec.name)
            .field("users", &self.users.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_core::CacheConfig;
    use tapeworm_workload::Workload;

    fn small_cfg() -> SystemConfig {
        let cache = CacheConfig::new(4096, 16, 1).expect("valid geometry");
        SystemConfig::cache(Workload::Espresso, cache).with_scale(20_000)
    }

    /// Engine state a hand-built run can move, other than the walk's
    /// own tallies.
    #[derive(Debug, PartialEq, Eq)]
    struct MachineState {
        now: u64,
        instructions: u64,
        breakpoint_checks: u64,
        trap_entries: u64,
        clock_interrupts: u64,
        cpi_acc_milli: u64,
        kernel_cycles: u64,
    }

    /// Runs `words` kernel fetches from the start of a freshly mapped
    /// kernel page whose traps are all cleared except the 16-byte
    /// granules listed in `trapped`, with the clock parked exactly
    /// `until` cycles before its next tick and the CPI accumulator at 0
    /// (so a clean word costs exactly 1.7 cycles). The interrupt
    /// handler is empty, so a tick adds no fetches of its own. Returns
    /// the `(FastRuns, FastWords)` the run added, the walk flushes it
    /// made, and the engine state after it.
    fn hand_built_run(
        walk: bool,
        trapped: &[u64],
        until: u64,
        words: u32,
    ) -> ((u64, u64), u64, MachineState) {
        let cache = CacheConfig::new(64 * 1024, 16, 1).expect("valid geometry");
        let mut cfg = SystemConfig::cache(Workload::Espresso, cache)
            .with_scale(20_000)
            .with_fast_path(walk);
        cfg.interrupt_handler_words = 0;
        let mut scratch = TrialScratch::default();
        let mut e =
            Engine::new(&cfg, SeedSeq::new(1), SeedSeq::new(2), &mut scratch).expect("boots");
        let va = VirtAddr::new(KERNEL_TEXT_BASE);
        let pa = e.touch(Component::Kernel, Tid::KERNEL, va).expect("maps");
        let page = e.page_bytes;
        e.machine.traps_mut().clear_range(pa, page);
        for &g in trapped {
            e.machine.traps_mut().set_range(pa + g * 16, 16);
        }
        if e.machine.cycles_until_tick() <= until {
            e.advance(e.machine.cycles_until_tick(), 0).expect("ticks");
        }
        e.advance(e.machine.cycles_until_tick() - until, 0)
            .expect("no tick");
        assert_eq!(e.machine.cycles_until_tick(), until);
        e.cpi_acc_milli = 0;
        let (runs, fast_words, flushes) = (e.fast_runs, e.fast_words, e.walk_flushes);
        e.exec_words(Component::Kernel, Tid::KERNEL, va, words)
            .expect("runs");
        let state = MachineState {
            now: e.machine.now(),
            instructions: e.machine.instructions(),
            breakpoint_checks: e.machine.breakpoint_checks(),
            trap_entries: e.machine.trap_entries(),
            clock_interrupts: e.machine.clock_interrupts(),
            cpi_acc_milli: e.cpi_acc_milli,
            kernel_cycles: e.monster.cycles(Component::Kernel),
        };
        (
            (e.fast_runs - runs, e.fast_words - fast_words),
            e.walk_flushes - flushes,
            state,
        )
    }

    // The digest-frozen batching rule (`FastRuns`/`FastWords` sit in
    // the golden digests' counter prefix): a clean stretch retires as
    // whole chunks, a trailing partial chunk is its own run, the chunk
    // reaching the tick is probed rather than batched, and a trapped
    // chunk splits the stretch. Granule 255 (the page's last line,
    // never reached) is trapped so the walk, not the clean-frame
    // shortcut, runs; each case also matches the stepwise loop's
    // machine state exactly.

    #[test]
    fn a_run_ending_mid_chunk_is_two_fast_runs() {
        // 10 words from a line start: two whole 4-word chunks, then a
        // trailing 2-word partial chunk as its own run — in one walk
        // flush, and identically through the clean-frame shortcut.
        let (fast, flushes, state) = hand_built_run(true, &[255], 50_000, 10);
        assert_eq!(fast, (2, 10));
        assert_eq!(flushes, 1);
        let (stepwise, _, reference) = hand_built_run(false, &[255], 50_000, 10);
        assert_eq!(stepwise, (0, 0));
        assert_eq!(state, reference);
        let (fast, flushes, state) = hand_built_run(true, &[], 50_000, 10);
        assert_eq!((fast, flushes), ((2, 10), 0));
        assert_eq!(state, hand_built_run(false, &[], 50_000, 10).2);
    }

    #[test]
    fn the_chunk_reaching_a_tick_is_not_counted_as_fast() {
        // 1000 cycles of headroom: 588 words cost 999.6 cycles, so 147
        // whole chunks batch; the 148th chunk (words 588..592) reaches
        // the tick, is probed and flushes the walk; the remaining 8
        // words batch in a second walk after the tick.
        let (fast, flushes, state) = hand_built_run(true, &[255], 1000, 600);
        assert_eq!(fast, (2, 596));
        assert_eq!(flushes, 2);
        assert_eq!(state.clock_interrupts, 1);
        let (_, _, reference) = hand_built_run(false, &[255], 1000, 600);
        assert_eq!(state, reference);
    }

    #[test]
    fn a_trapped_chunk_mid_run_splits_the_clean_stretch() {
        // 16 words over four chunks, the third trapped: chunks 0-1
        // batch, chunk 2 misses inline, chunk 3 batches — one flush.
        let (fast, flushes, state) = hand_built_run(true, &[2, 255], 50_000, 16);
        assert_eq!(fast, (2, 12));
        assert_eq!(flushes, 1);
        assert_eq!(state.trap_entries, 1);
        let (_, _, reference) = hand_built_run(false, &[2, 255], 50_000, 16);
        assert_eq!(state, reference);
    }

    #[test]
    fn observed_trial_matches_plain_and_collects_metrics() {
        let cfg = small_cfg();
        let (base, trial) = (SeedSeq::new(1), SeedSeq::new(2));
        let plain = TrialRunner::new().run(&cfg, base, trial).expect("trial");
        let TrialRun {
            result: observed,
            metrics,
            ..
        } = TrialRunner::new()
            .observe(ObsConfig::with_ring(64))
            .run(&cfg, base, trial)
            .expect("trial");
        // Observation never perturbs the simulation.
        assert_eq!(plain.result, observed);
        // Every handler entry produced exactly one ring event.
        assert_eq!(
            metrics.events_recorded,
            metrics.counters.get(CounterId::TrapEntries)
        );
        assert!(metrics.events_recorded > 0);
        assert_eq!(
            metrics.events.len() as u64 + metrics.events_dropped,
            metrics.events_recorded
        );
        // The phase account books every cycle of the trial.
        assert_eq!(metrics.phases.overhead(), observed.overhead_cycles);
        assert_eq!(metrics.phases.workload(), observed.workload_cycles);
        // A disabled ring records nothing but counts stay on.
        let quiet = plain.metrics;
        assert_eq!(quiet.events_recorded, 0);
        assert!(quiet.events.is_empty());
        assert_eq!(quiet.counters, metrics.counters);
        assert_eq!(quiet.phases, metrics.phases);
    }

    #[test]
    fn window_miss_ratios_divide_by_each_window_span() {
        let period = NonZeroU64::new(5_000).expect("positive window");
        let windows = TrialRunner::new()
            .window(period)
            .run(&small_cfg(), SeedSeq::new(1), SeedSeq::new(2))
            .expect("trial")
            .windows;
        assert!(windows.len() > 2);
        let ratios: Vec<f64> = WindowSample::miss_ratios(&windows).collect();
        let mut previous_end = 0;
        for (w, ratio) in windows.iter().zip(ratios) {
            let span = w.end_instructions - previous_end;
            assert_eq!(ratio, w.misses as f64 / span as f64);
            previous_end = w.end_instructions;
        }
        // Windows close at quantum boundaries, not on the period.
        assert!(windows
            .iter()
            .any(|w| w.end_instructions % period.get() != 0));
    }

    #[test]
    fn ring_events_are_ordered_and_well_formed() {
        let cfg = small_cfg();
        let metrics = TrialRunner::new()
            .observe(ObsConfig::with_ring(128))
            .run(&cfg, SeedSeq::new(1), SeedSeq::new(2))
            .expect("trial")
            .metrics;
        let cycles: Vec<u64> = metrics.events.iter().map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "events in time order"
        );
        assert!(metrics
            .events
            .iter()
            .all(|e| matches!(e.kind, TrapKind::IFetch)));
    }
}
