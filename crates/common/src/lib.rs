//! # abyss-common
//!
//! Shared foundation for the **abyss** reproduction of *Staring into the
//! Abyss: An Evaluation of Concurrency Control with One Thousand Cores*
//! (Yu et al., VLDB 2014).
//!
//! This crate holds everything that the storage layer, the real
//! multi-threaded engine (`abyss-core`), the many-core simulator
//! (`abyss-sim`) and the workload generators (`abyss-workload`) need to
//! agree on:
//!
//! * identifier types ([`ids`]),
//! * the seven concurrency-control schemes and five timestamp-allocation
//!   methods evaluated by the paper ([`scheme`]),
//! * abort/error taxonomy ([`error`]),
//! * the per-phase time breakdown behind the paper's six §3.2 categories
//!   plus run-level statistics ([`stats`]),
//! * a fixed-bucket HDR-style latency histogram for per-attempt commit and
//!   abort latency percentiles ([`histo`]),
//! * a deterministic, allocation-free RNG ([`rng`]) and the Gray et al.
//!   Zipfian generator used by YCSB ([`zipf`]),
//! * a fast FxHash-style hasher for integer keys ([`fxhash`]),
//! * engine-agnostic transaction templates ([`txn`]) so that the same
//!   generated workload runs unmodified on both the real engine and the
//!   simulator,
//! * the repo-wide cache-line padding newtypes for contended words
//!   ([`pad`]) and the thread→core pinning primitive + placement policies
//!   the engine and bench harness share ([`affinity`]).

pub mod affinity;
pub mod error;
pub mod fxhash;
pub mod histo;
pub mod ids;
pub mod pad;
pub mod rng;
pub mod scheme;
pub mod stats;
pub mod txn;
pub mod zipf;

pub use affinity::{
    available_cores, current_cpu, current_node, numa_topology, pin_to_core, NumaTopology, PinPolicy,
};
pub use error::{AbortReason, DbError};
pub use histo::LatencyHisto;
pub use ids::{CoreId, Key, PartId, RowIdx, TableId, Ts, TxnId};
pub use pad::{PadWrap, Padded, Unpadded};
pub use scheme::{CcScheme, TsMethod};
pub use stats::{Phase, PhaseBreakdown, Priority, RunStats};
pub use txn::{AccessOp, AccessSpec, KeySpec, TxnTemplate};
