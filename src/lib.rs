//! # Tapeworm II — trap-driven cache and TLB simulation
//!
//! A full reproduction of *"Trap-driven Simulation with Tapeworm II"*
//! (Uhlig, Nagle, Mudge, Sechrest — ASPLOS 1994) as a Rust workspace.
//! This facade crate re-exports every layer so examples and downstream
//! users need a single dependency:
//!
//! * [`stats`] — trial statistics, seeds, Zipf sampling.
//! * [`mem`] — SECDED ECC memory, trap maps, frame allocators.
//! * [`machine`] — the simulated host: traps, TLB, clock, breakpoints,
//!   DMA, the Monster monitor.
//! * [`os`] — the microkernel: tasks with Tapeworm attributes, VM
//!   system, scheduler.
//! * [`workload`] — the eight ASPLOS'94 workload models.
//! * [`core`] — **the paper's contribution**: the trap-driven
//!   simulator, its Table 1 primitives, set sampling, cost models and
//!   TLB simulation.
//! * [`trace`] — the Pixie + Cache2000 trace-driven baseline.
//! * [`obs`] — the Monster II observability layer: counter registry,
//!   trap-event ring, phase cycle accounting, metrics export.
//! * [`sim`] — the full-system experiment engine.
//! * [`server`] — sweep-as-a-service: declarative specs, a persistent
//!   job queue, pluggable worker backends and the fingerprint cache.
//!
//! # Quickstart
//!
//! ```
//! use tapeworm::core::CacheConfig;
//! use tapeworm::sim::{ObsConfig, SystemConfig, TrialRunner};
//! use tapeworm::stats::SeedSeq;
//! use tapeworm::workload::Workload;
//!
//! let cache = CacheConfig::new(4 * 1024, 16, 1)?;
//! let cfg = SystemConfig::cache(Workload::Espresso, cache).with_scale(2000);
//! // One runner per worker: it reuses its engine buffers across trials.
//! let mut runner = TrialRunner::new().observe(ObsConfig::with_ring(64));
//! let run = runner.run(&cfg, SeedSeq::new(1), SeedSeq::new(2))?;
//! assert!(run.result.total_misses() > 0.0);
//! assert!(!run.metrics.events.is_empty());
//! println!("slowdown: {:.2}", run.result.slowdown());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tapeworm_core as core;
pub use tapeworm_machine as machine;
pub use tapeworm_mem as mem;
pub use tapeworm_obs as obs;
pub use tapeworm_os as os;
pub use tapeworm_server as server;
pub use tapeworm_sim as sim;
pub use tapeworm_stats as stats;
pub use tapeworm_trace as trace;
pub use tapeworm_workload as workload;
