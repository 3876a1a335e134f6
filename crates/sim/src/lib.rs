//! # abyss-sim
//!
//! A deterministic many-core CPU simulator — the substitute for MIT's
//! Graphite (§3.1) that lets the abyss DBMS scale to 1024 cores on one
//! host.
//!
//! Where Graphite executes real x86 instructions with relaxed cycle
//! accounting, `abyss-sim` executes the *DBMS algorithms themselves*
//! (lock queues, waits-for graphs, timestamp checks, version chains,
//! validation) as per-core state machines over a discrete-event kernel,
//! charging cycle costs from an explicit model of the paper's target
//! architecture: a tiled CMP with a 2-D mesh NoC (2 cycles/hop, 1 GHz)
//! and shared NUCA L2 ([`topology`], [`cost`]).
//!
//! * [`kernel`] — the event queue (deterministic tie-breaking).
//! * [`tsalloc`] — the five timestamp-allocation methods of §4.3/Fig. 6.
//! * [`db`] — per-tuple CC metadata for all seven schemes, lazily
//!   materialized so the paper's 20M-row YCSB table costs only its
//!   touched working set.
//! * [`exec`] — the per-core transaction state machines.
//! * [`driver`] — warmup, measurement, and the merged per-phase time
//!   breakdown behind §3.2.
//!
//! Runs are bit-reproducible: same [`config::SimConfig`] + generators ⇒
//! identical statistics.

pub mod config;
pub mod cost;
pub mod db;
pub mod driver;
pub mod exec;
pub mod kernel;
pub mod topology;
pub mod tsalloc;

pub use config::{SimConfig, SimDurability};
pub use cost::{CostModel, FREQ_HZ};
pub use db::{SimDb, SimTable};
pub use driver::{run_sim, run_sim_full, SimReport};
pub use tsalloc::microbench;
