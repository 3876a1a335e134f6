//! # abyss-core
//!
//! A main-memory OLTP engine with nine pluggable concurrency-control
//! schemes — the Rust reproduction of the DBMS test-bed from *Staring into
//! the Abyss: An Evaluation of Concurrency Control with One Thousand
//! Cores* (Yu et al., VLDB 2014), plus the two modern timestamp-free OCC
//! variants the paper's §4.3 analysis points toward (SILO and TICTOC).
//!
//! The engine deliberately contains "only the functionality needed for our
//! experiments" (§3.2): row storage behind hash indexes, per-tuple
//! concurrency-control metadata (no centralized lock table, §4.1), a
//! pluggable scheme manager, and per-thread memory pools. The [`epoch`]
//! module is the reusable epoch subsystem (global ticker, per-worker
//! quiescence, epoch-tagged TID words) that SILO commits through, TICTOC
//! and group commit use as their quiescence horizon — the word layout and
//! quiescence protocol are documented in `DESIGN.md`.
//!
//! ## Quickstart
//!
//! ```
//! use abyss_core::schemes::NoWait;
//! use abyss_core::{Database, EngineConfig};
//! use abyss_common::CcScheme;
//! use abyss_storage::{row, Catalog, Schema};
//!
//! let mut catalog = Catalog::new();
//! let accounts = catalog.add_table("accounts", Schema::key_plus_payload(1, 8), 1000);
//!
//! let db = Database::new(EngineConfig::new(CcScheme::NoWait, 2), catalog).unwrap();
//! db.load_table(accounts, 0..10, |schema, data, key| {
//!     row::set_u64(schema, data, 0, key);
//!     row::set_u64(schema, data, 1, 100); // balance
//! }).unwrap();
//!
//! let mut worker = db.worker_as::<NoWait>(0);
//! // Transfer 10 from account 1 to account 2, retrying conflicts.
//! worker.run_txn(&[], |txn| {
//!     let from = txn.read_u64(accounts, 1, 1)?;
//!     txn.update(accounts, 1, |s, d| row::set_u64(s, d, 1, from - 10))?;
//!     let to = txn.read_u64(accounts, 2, 1)?;
//!     txn.update(accounts, 2, |s, d| row::set_u64(s, d, 1, to + 10))?;
//!     Ok(())
//! }).unwrap();
//! assert_eq!(db.sum_column(accounts, 1), 1000);
//! ```

pub mod backoff;
pub mod config;
pub mod db;
pub mod epoch;
pub mod executor;
pub mod lockword;
pub mod meta;
pub mod obs;
pub mod park;
pub mod schemes;
pub mod serve;
pub mod ts;
pub mod txn;
pub mod waitsfor;
pub mod worker;

pub use backoff::BackoffCtl;
pub use config::{EngineConfig, LogConfig, TraceConfig};
pub use db::{Database, RecoveryReport};
pub use epoch::{EpochManager, EpochTicker};
pub use obs::{MetricsSnapshot, TraceDump, TraceEvent, TraceEventKind, TxnOutcome, TxnSummary};
pub use schemes::CcProtocol;
pub use serve::{
    CancelToken, ProcFn, ProcId, ProcRegistry, ServeConfig, SubmitError, TicketStatus, TxnService,
    TxnTicket,
};
pub use ts::{SharedTs, TsHandle};
pub use worker::{run_workers, run_workers_bounded, BenchOutcome, TxnError, WorkerCtx};
