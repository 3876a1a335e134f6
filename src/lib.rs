//! # abyss — concurrency control at one thousand cores
//!
//! Facade crate re-exporting the workspace: a Rust reproduction of
//! *Staring into the Abyss: An Evaluation of Concurrency Control with One
//! Thousand Cores* (Yu, Bezerra, Pavlo, Devadas, Stonebraker — VLDB 2014).
//!
//! * [`common`] — ids, schemes, stats, RNG/Zipf, transaction templates.
//! * [`storage`] — catalog, row store, hash index, memory pools.
//! * [`core`] — the multi-threaded main-memory DBMS with nine pluggable
//!   concurrency-control schemes.
//! * [`sim`] — the deterministic many-core simulator (Graphite substitute)
//!   used to scale the evaluation to 1024 cores.
//! * [`workload`] — YCSB and TPC-C generators.
//! * [`bench`](mod@bench) — the unified benchmark harness and figure experiments
//!   (see DESIGN.md, "The bench harness").
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

pub use abyss_bench as bench;
pub use abyss_common as common;
pub use abyss_core as core;
pub use abyss_sim as sim;
pub use abyss_storage as storage;
pub use abyss_workload as workload;
