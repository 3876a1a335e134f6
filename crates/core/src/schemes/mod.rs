//! The nine concurrency-control scheme implementations — the paper's
//! seven plus the modern epoch-based [`silo`] and data-driven-timestamp
//! [`tictoc`] — behind one type-level dispatch surface.
//!
//! [`CcProtocol`] captures the full per-scheme surface the engine needs:
//! the access operations (`read` / `write` / `insert` / `delete` /
//! `scan`), the lifecycle hooks (`begin` / `commit` / `abort`), and the
//! scheme's identity ([`CcProtocol::SCHEME`]), whose `const fn`
//! capability metadata the worker reads in place of scattered runtime
//! checks of the configured scheme. Each scheme is a zero-sized type
//! implementing the trait; [`crate::worker`] monomorphizes the whole
//! execution loop over one of them, so the steady-state hot path contains
//! **no** scheme branches — the protocol inlines straight into the access
//! loop.
//!
//! [`dispatch_protocol!`](crate::dispatch_protocol) is the one place a
//! runtime [`CcScheme`] value becomes one of these types: the run drivers
//! and the serving layer go through it once per run, tests once per
//! scheme.
//!
//! Adding a tenth scheme means: one new module with a zero-sized type
//! implementing [`CcProtocol`] (its `const SCHEME` names the new variant),
//! one arm in [`dispatch_protocol!`](crate::dispatch_protocol), one
//! [`CcScheme`] variant (+ its capability metadata there), and nothing
//! else — no engine edits.

pub mod hstore;
pub mod mvcc;
pub mod occ;
pub mod silo;
pub mod tictoc;
pub mod timestamp;
pub mod twopl;

pub use abyss_common::CcScheme;
pub use hstore::HStore;
pub use mvcc::Mvcc;
pub use occ::Occ;
pub use silo::Silo;
pub use tictoc::TicToc;
pub use timestamp::Timestamp;
pub use twopl::{DlDetect, NoWait, WaitDie};

use abyss_common::stats::RunStats;
use abyss_common::{AbortReason, CoreId, Key, PartId, RowIdx, TableId};
use abyss_storage::{MemPool, Schema};

use crate::db::Database;
use crate::obs::PhaseClock;
use crate::ts::TsHandle;
use crate::txn::TxnState;
use crate::worker::TxnError;

/// Disjoint borrows of the worker context handed to scheme code. Opaque
/// outside the crate: schemes live next to the engine internals they
/// coordinate with.
pub struct SchemeEnv<'a> {
    /// The shared database.
    pub(crate) db: &'a Database,
    /// This transaction's state.
    pub(crate) st: &'a mut TxnState,
    /// The worker's memory pool (read copies, undo images, write buffers).
    pub(crate) pool: &'a mut MemPool,
    /// The worker id (park-table slot).
    pub(crate) worker: CoreId,
    /// Per-worker statistics (scheme-specific counters).
    pub(crate) stats: &'a mut RunStats,
    /// The worker's timestamp-allocator handle (OCC's validation ts).
    pub(crate) ts: &'a mut TsHandle,
    /// SILO: the worker's previous commit TID (next one must exceed it).
    pub(crate) last_tid: &'a mut u64,
    /// The worker's per-phase stopwatch (no-op unless `cfg.breakdown`).
    pub(crate) phases: &'a mut PhaseClock,
}

impl SchemeEnv<'_> {
    /// Hand a private row copy to the transaction's read buffer.
    #[inline]
    pub(crate) fn push_read_copy(
        &mut self,
        table: TableId,
        row: RowIdx,
        data: abyss_storage::mempool::PoolBlock,
    ) -> ReadRef {
        self.st.rbuf.push(crate::txn::ReadCopy { table, row, data });
        ReadRef::Rbuf(self.st.rbuf.len() - 1)
    }

    /// Read-own-write for the buffering schemes: when this transaction
    /// already holds a private image of `(table, row)`, serve the read
    /// from a copy of it.
    pub(crate) fn read_own_write(&mut self, table: TableId, row: RowIdx) -> Option<ReadRef> {
        let i = self.st.wbuf_idx(table, row)?;
        let len = self.db.tables[table as usize].row_size();
        // Uninit is safe: the row prefix is overwritten here and readers
        // only ever see `data[..row_size]`.
        let mut copy = self.pool.alloc_uninit(len);
        copy[..len].copy_from_slice(&self.st.wbuf[i].data[..len]);
        Some(self.push_read_copy(table, row, copy))
    }

    /// Close out a blocking wait that `started` opened: charge
    /// [`abyss_common::Phase::Wait`] and, when tracing is on, emit the
    /// attempt's `FirstConflict` (once) plus the `WaitStart`/`WaitEnd`
    /// pair — the start back-dated by the measured duration, so
    /// cross-worker merges place the events where the wait actually
    /// happened. Every scheme wait site funnels through here.
    pub(crate) fn record_wait(&mut self, started: std::time::Instant) {
        let waited = started.elapsed().as_nanos() as u64;
        self.phases.note_wait(waited);
        if self.db.trace_enabled() {
            use crate::obs::TraceEventKind;
            let txn = self.st.txn_id;
            let end = self.db.trace_set().expect("tracing enabled").now_ns();
            let start = end.saturating_sub(waited);
            if !self.st.traced_conflict {
                self.st.traced_conflict = true;
                self.db
                    .trace_event_at(self.worker, txn, start, TraceEventKind::FirstConflict);
            }
            self.db
                .trace_event_at(self.worker, txn, start, TraceEventKind::WaitStart);
            self.db
                .trace_event_at(self.worker, txn, end, TraceEventKind::WaitEnd);
        }
    }

    /// WAL commit point drawing a fresh commit sequence number — the
    /// phase-accounted front door every scheme's commit goes through
    /// (charged to [`abyss_common::Phase::Logging`], then back to
    /// Manager for the rest of the commit window).
    pub(crate) fn wal_commit_point_csn(&mut self) {
        self.phases.set(abyss_common::Phase::Logging);
        self.db
            .wal_commit_point_csn(self.worker, self.st, self.stats);
        self.phases.set(abyss_common::Phase::Manager);
    }

    /// WAL commit point at the scheme's own serial number (T/O schemes
    /// log at their commit timestamp). Phase-accounted like
    /// [`SchemeEnv::wal_commit_point_csn`].
    pub(crate) fn wal_commit_point_seq(&mut self, seq: u64) {
        self.phases.set(abyss_common::Phase::Logging);
        self.db
            .wal_commit_point_seq(self.worker, self.st, self.stats, seq);
        self.phases.set(abyss_common::Phase::Manager);
    }

    /// WAL commit point at an explicit `(epoch, seq)` (SILO logs at its
    /// epoch-composed TID). Phase-accounted like
    /// [`SchemeEnv::wal_commit_point_csn`].
    pub(crate) fn wal_commit_point_at(&mut self, epoch: u64, seq: u64) {
        self.phases.set(abyss_common::Phase::Logging);
        self.db
            .wal_commit_point_at(self.worker, self.st, self.stats, epoch, seq);
        self.phases.set(abyss_common::Phase::Manager);
    }
}

/// Where a read's bytes live.
#[derive(Debug, Clone, Copy)]
pub enum ReadRef {
    /// Directly in the table arena (2PL / H-STORE: protected by a held
    /// lock or an owned partition until commit).
    InPlace {
        /// Pointer into the table arena.
        ptr: *const u8,
        /// Row length.
        len: usize,
    },
    /// In the transaction's read-copy buffer at this index (T/O, MVCC, OCC).
    Rbuf(usize),
}

/// One concurrency-control scheme, as a type.
///
/// The worker ([`crate::worker::WorkerCtx`]) is generic over an impl of
/// this trait; instantiating it with a scheme type compiles the protocol
/// straight into the transaction loop (zero dispatch per access). The
/// worker reads the scheme's capabilities as `P::SCHEME.needs_start_ts()`
/// and so on — `const fn`s on a const, folded at compile time.
pub trait CcProtocol: Sized + 'static {
    /// The scheme this type implements. [`crate::worker::WorkerCtx`]
    /// asserts it against the database's configured scheme.
    const SCHEME: CcScheme;

    /// Scheme admission work at transaction begin, after the worker has
    /// installed the timestamp / epoch / waits-for registrations.
    /// `partitions` is the caller-declared partition set (H-STORE sorts,
    /// deduplicates and acquires it; everyone else ignores it).
    #[inline]
    fn begin(env: &mut SchemeEnv<'_>, partitions: &[PartId]) -> Result<(), AbortReason> {
        let _ = (env, partitions);
        Ok(())
    }

    /// Admit and perform a point read of `(table, row)`.
    fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason>;

    /// Admit a read-modify-write of `(table, row)`; `f` mutates the
    /// current image (in place or in the private workspace).
    fn write(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason>;

    /// Admit an insert of a fresh row under `key`; `f` initializes it.
    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason>;

    /// Admit a delete of `key`'s row.
    fn delete(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<(), AbortReason>;

    /// Range-scan `low..=high` of an ordered table with this scheme's
    /// phantom protection, invoking `f` per qualifying row; returns the
    /// number of rows observed. Each scheme module documents its rule.
    fn scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError>;

    /// Validate (where applicable), pass the WAL commit point inside the
    /// commit's exclusion window, and install the transaction. On `Err`
    /// the transaction is left in its uncommitted state for
    /// [`CcProtocol::abort`] to roll back.
    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason>;

    /// Roll back everything the scheme published or holds.
    fn abort(env: &mut SchemeEnv<'_>);
}

/// Binds `$P` to the [`CcProtocol`](crate::schemes::CcProtocol) type for the
/// runtime [`CcScheme`](crate::schemes::CcScheme) value `$scheme` and evaluates
/// `$body` — the one place a scheme value becomes a type.
/// [`run_workers`](crate::run_workers) and the serving layer go through
/// it once per run. Code that loops over schemes is written as a generic
/// function and called through it:
///
/// ```
/// use abyss_common::CcScheme;
/// use abyss_core::schemes::CcProtocol;
///
/// fn name<P: CcProtocol>() -> &'static str {
///     P::SCHEME.name()
/// }
///
/// for scheme in CcScheme::ALL {
///     assert_eq!(abyss_core::dispatch_protocol!(scheme, P => name::<P>()), scheme.name());
/// }
/// ```
#[macro_export]
macro_rules! dispatch_protocol {
    ($scheme:expr, $P:ident => $body:expr) => {
        match $scheme {
            $crate::schemes::CcScheme::DlDetect => {
                type $P = $crate::schemes::DlDetect;
                $body
            }
            $crate::schemes::CcScheme::NoWait => {
                type $P = $crate::schemes::NoWait;
                $body
            }
            $crate::schemes::CcScheme::WaitDie => {
                type $P = $crate::schemes::WaitDie;
                $body
            }
            $crate::schemes::CcScheme::Timestamp => {
                type $P = $crate::schemes::Timestamp;
                $body
            }
            $crate::schemes::CcScheme::Mvcc => {
                type $P = $crate::schemes::Mvcc;
                $body
            }
            $crate::schemes::CcScheme::Occ => {
                type $P = $crate::schemes::Occ;
                $body
            }
            $crate::schemes::CcScheme::HStore => {
                type $P = $crate::schemes::HStore;
                $body
            }
            $crate::schemes::CcScheme::Silo => {
                type $P = $crate::schemes::Silo;
                $body
            }
            $crate::schemes::CcScheme::TicToc => {
                type $P = $crate::schemes::TicToc;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every arm of the macro binds the type whose `SCHEME` is that arm's
    /// variant.
    #[test]
    fn capability_surfaces_agree() {
        for scheme in CcScheme::ALL {
            assert_eq!(crate::dispatch_protocol!(scheme, P => P::SCHEME), scheme);
        }
    }
}
