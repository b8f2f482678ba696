//! The repository benchmark for the Tapeworm II simulator.
//!
//! One command runs one of three workloads (`user-4k`, `user-64k`,
//! `paper-sweep`) and prints its end-to-end metrics, or, with
//! `--trace 1`, its per-layer metrics; see `README.md` beside this
//! package. Measurement is outside-in only: the benchmark times its
//! own calls into the simulator's public functions and reads the
//! program's own observability counters.

pub mod bench;
pub mod catalog;
pub mod layers;
pub mod report;
pub mod trace;
