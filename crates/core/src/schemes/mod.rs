//! The nine concurrency-control scheme implementations — the paper's
//! seven plus the modern epoch-based [`silo`] and data-driven-timestamp
//! [`tictoc`] — behind one type-level dispatch surface.
//!
//! [`CcProtocol`] captures the full per-scheme surface the engine needs:
//! the access operations (`read` / `write` / `insert` / `delete` /
//! `scan`), the lifecycle hooks (`begin` / `commit` / `abort`), and the
//! capability metadata (`NEEDS_TS`, `USES_EPOCH`, …) that used to live as
//! scattered `matches!(scheme, …)` conditions in the worker. Each scheme
//! is a zero-sized type implementing the trait; [`crate::worker`]
//! monomorphizes the whole execution loop over one of them, so the
//! steady-state hot path contains **no** scheme branches — the protocol
//! inlines straight into the access loop.
//!
//! [`dispatch::AnyScheme`] is the runtime-dispatch shim: one enum match
//! per operation, forwarding to the static impls. It backs the
//! convenience API ([`crate::db::Database::worker`]) and serves as the
//! measured baseline of the dispatch micro-comparison. The
//! [`dispatch_protocol!`](dispatch_protocol) macro is the single
//! monomorphization point a run goes through.
//!
//! Adding a tenth scheme means: one new module with a zero-sized type
//! implementing [`CcProtocol`], one arm in [`dispatch_protocol!`], one
//! [`abyss_common::CcScheme`] variant (+ its capability metadata there),
//! and nothing else — no engine edits.

pub mod dispatch;
pub mod hstore;
pub mod mvcc;
pub mod occ;
pub mod silo;
pub mod tictoc;
pub mod timestamp;
pub mod twopl;

pub use dispatch::AnyScheme;
pub use hstore::HStore;
pub use mvcc::Mvcc;
pub use occ::Occ;
pub use silo::Silo;
pub use tictoc::TicToc;
pub use timestamp::Timestamp;
pub use twopl::{DlDetect, NoWait, WaitDie};

use abyss_common::stats::RunStats;
use abyss_common::{AbortReason, CcScheme, CoreId, Key, PartId, RowIdx, TableId};
use abyss_storage::{MemPool, Schema};

use crate::db::Database;
use crate::obs::PhaseClock;
use crate::ts::TsHandle;
use crate::txn::TxnState;
use crate::worker::{TxnError, WorkerCtx};

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
/// this trait; instantiating it with a static scheme type compiles the
/// protocol straight into the transaction loop (zero dispatch per
/// access), while [`AnyScheme`] recovers the classic one-match-per-access
/// runtime dispatch for contexts that cannot name the scheme statically.
///
/// The capability consts mirror [`CcScheme`]'s metadata; the parallel
/// `fn` hooks exist so the runtime shim can answer from the configured
/// scheme instead — static impls must leave the defaults (which return
/// the consts) untouched.
pub trait CcProtocol: Sized + 'static {
    /// `Some(scheme)` for the per-scheme impls ([`crate::worker`] asserts
    /// it against the database's configured scheme); `None` for the
    /// runtime shim.
    const STATIC_SCHEME: Option<CcScheme>;
    /// Allocates a start timestamp at begin.
    const NEEDS_TS: bool;
    /// Restarts keep their original timestamp (WAIT_DIE's age).
    const TS_REUSE_ON_RESTART: bool;
    /// Registers every transaction in the epoch subsystem.
    const USES_EPOCH: bool;
    /// Acquires its declared partition set at begin (H-STORE).
    /// Informational metadata only: the acquisition itself is the
    /// scheme's own [`CcProtocol::begin`] hook, not engine behavior
    /// keyed off this const — a partitioned scheme must implement
    /// `begin`.
    const ACQUIRES_PARTITIONS: bool;
    /// Maintains the waits-for graph (DL_DETECT).
    const TRACKS_WAITS: bool;
    /// Point accesses re-probe the index against committed deletes.
    const GUARDS_DELETED: bool;
    /// Adaptive backoff: multiplicative-increase gain, percent per unit
    /// abort rate (see [`crate::backoff::BackoffCtl`]).
    const BACKOFF_GAIN_PCT: u32;
    /// Adaptive backoff: per-scheme delay ceiling, microseconds.
    const BACKOFF_CEILING_US: u64;
    /// Read-only transactions skip the scheme's commit-time timestamp
    /// allocation (OCC's validation ts — an empty write set has an empty
    /// validation window).
    const RO_COMMIT_SKIPS_TS: bool;

    /// Runtime-capable mirror of [`CcProtocol::NEEDS_TS`].
    #[inline(always)]
    fn needs_ts(_scheme: CcScheme) -> bool {
        Self::NEEDS_TS
    }
    /// Runtime-capable mirror of [`CcProtocol::TS_REUSE_ON_RESTART`].
    #[inline(always)]
    fn ts_reuse_on_restart(_scheme: CcScheme) -> bool {
        Self::TS_REUSE_ON_RESTART
    }
    /// Runtime-capable mirror of [`CcProtocol::USES_EPOCH`].
    #[inline(always)]
    fn uses_epoch(_scheme: CcScheme) -> bool {
        Self::USES_EPOCH
    }
    /// Runtime-capable mirror of [`CcProtocol::TRACKS_WAITS`].
    #[inline(always)]
    fn tracks_waits(_scheme: CcScheme) -> bool {
        Self::TRACKS_WAITS
    }
    /// Runtime-capable mirror of [`CcProtocol::GUARDS_DELETED`].
    #[inline(always)]
    fn guards_deleted(_scheme: CcScheme) -> bool {
        Self::GUARDS_DELETED
    }
    /// Runtime-capable mirror of [`CcProtocol::BACKOFF_GAIN_PCT`].
    #[inline(always)]
    fn backoff_gain_pct(_scheme: CcScheme) -> u32 {
        Self::BACKOFF_GAIN_PCT
    }
    /// Runtime-capable mirror of [`CcProtocol::BACKOFF_CEILING_US`].
    #[inline(always)]
    fn backoff_ceiling_us(_scheme: CcScheme) -> u64 {
        Self::BACKOFF_CEILING_US
    }
    /// Runtime-capable mirror of [`CcProtocol::RO_COMMIT_SKIPS_TS`].
    #[inline(always)]
    fn ro_commit_skips_ts(_scheme: CcScheme) -> bool {
        Self::RO_COMMIT_SKIPS_TS
    }

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

    /// Scan-path read: `None` means "invisible at this snapshot, skip"
    /// (MVCC's snapshot-bounded scans); everyone else reads like
    /// [`CcProtocol::read`].
    #[inline]
    fn read_for_scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
    ) -> Result<Option<ReadRef>, AbortReason> {
        Self::read(env, table, row).map(Some)
    }

    /// Range-scan `low..=high` with this scheme's phantom protection,
    /// invoking `f` per qualifying row. Impls pick one of the worker's
    /// scan drivers (next-key-locked walk, leaf-tagged T/O scan, node-set
    /// scan, partition-exclusive walk).
    fn scan(
        ctx: &mut WorkerCtx<Self>,
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

/// Expands to the capability consts of [`CcProtocol`], derived from the
/// scheme's own [`CcScheme`] metadata — the impls cannot drift from the
/// enum.
macro_rules! scheme_caps {
    ($scheme:expr) => {
        const STATIC_SCHEME: Option<abyss_common::CcScheme> = Some($scheme);
        const NEEDS_TS: bool = $scheme.needs_start_ts();
        const TS_REUSE_ON_RESTART: bool = $scheme.reuses_ts_on_restart();
        const USES_EPOCH: bool = $scheme.uses_epoch();
        const ACQUIRES_PARTITIONS: bool = $scheme.partition_locked();
        const TRACKS_WAITS: bool = $scheme.tracks_waits();
        const GUARDS_DELETED: bool = $scheme.guards_deleted_rows();
        const BACKOFF_GAIN_PCT: u32 = $scheme.backoff_gain_pct();
        const BACKOFF_CEILING_US: u64 = $scheme.backoff_ceiling_us();
        const RO_COMMIT_SKIPS_TS: bool = $scheme.ro_commit_skips_ts();
    };
}
pub(crate) use scheme_caps;

/// Binds `$P` to the [`CcProtocol`] impl for `$scheme` and evaluates
/// `$body` — the one place a runtime [`CcScheme`] value becomes a static
/// protocol type. [`crate::worker::run_workers`] goes through this once
/// per run; [`AnyScheme`] goes through it once per operation.
macro_rules! dispatch_protocol {
    ($scheme:expr, $P:ident => $body:expr) => {
        match $scheme {
            abyss_common::CcScheme::DlDetect => {
                type $P = $crate::schemes::DlDetect;
                $body
            }
            abyss_common::CcScheme::NoWait => {
                type $P = $crate::schemes::NoWait;
                $body
            }
            abyss_common::CcScheme::WaitDie => {
                type $P = $crate::schemes::WaitDie;
                $body
            }
            abyss_common::CcScheme::Timestamp => {
                type $P = $crate::schemes::Timestamp;
                $body
            }
            abyss_common::CcScheme::Mvcc => {
                type $P = $crate::schemes::Mvcc;
                $body
            }
            abyss_common::CcScheme::Occ => {
                type $P = $crate::schemes::Occ;
                $body
            }
            abyss_common::CcScheme::HStore => {
                type $P = $crate::schemes::HStore;
                $body
            }
            abyss_common::CcScheme::Silo => {
                type $P = $crate::schemes::Silo;
                $body
            }
            abyss_common::CcScheme::TicToc => {
                type $P = $crate::schemes::TicToc;
                $body
            }
        }
    };
}
pub(crate) use dispatch_protocol;

#[cfg(test)]
mod tests {
    use super::*;

    /// The static impls' capability consts, the runtime shim's hooks, and
    /// the [`CcScheme`] metadata must agree for every scheme — a new
    /// capability added to one surface but not the others fails here.
    #[test]
    fn capability_surfaces_agree() {
        for scheme in CcScheme::ALL {
            dispatch_protocol!(scheme, P => {
                assert_eq!(P::STATIC_SCHEME, Some(scheme));
                assert_eq!(P::NEEDS_TS, scheme.needs_start_ts(), "{scheme}: NEEDS_TS");
                assert_eq!(
                    P::TS_REUSE_ON_RESTART,
                    scheme.reuses_ts_on_restart(),
                    "{scheme}: TS_REUSE_ON_RESTART"
                );
                assert_eq!(P::USES_EPOCH, scheme.uses_epoch(), "{scheme}: USES_EPOCH");
                assert_eq!(
                    P::ACQUIRES_PARTITIONS,
                    scheme.partition_locked(),
                    "{scheme}: ACQUIRES_PARTITIONS"
                );
                assert_eq!(P::TRACKS_WAITS, scheme.tracks_waits(), "{scheme}: TRACKS_WAITS");
                assert_eq!(
                    P::GUARDS_DELETED,
                    scheme.guards_deleted_rows(),
                    "{scheme}: GUARDS_DELETED"
                );
                assert_eq!(
                    P::BACKOFF_GAIN_PCT,
                    scheme.backoff_gain_pct(),
                    "{scheme}: BACKOFF_GAIN_PCT"
                );
                assert_eq!(
                    P::BACKOFF_CEILING_US,
                    scheme.backoff_ceiling_us(),
                    "{scheme}: BACKOFF_CEILING_US"
                );
                assert_eq!(
                    P::RO_COMMIT_SKIPS_TS,
                    scheme.ro_commit_skips_ts(),
                    "{scheme}: RO_COMMIT_SKIPS_TS"
                );
                // The shim must answer exactly like the static impl.
                assert_eq!(AnyScheme::needs_ts(scheme), P::NEEDS_TS);
                assert_eq!(AnyScheme::ts_reuse_on_restart(scheme), P::TS_REUSE_ON_RESTART);
                assert_eq!(AnyScheme::uses_epoch(scheme), P::USES_EPOCH);
                assert_eq!(AnyScheme::tracks_waits(scheme), P::TRACKS_WAITS);
                assert_eq!(AnyScheme::guards_deleted(scheme), P::GUARDS_DELETED);
                assert_eq!(AnyScheme::backoff_gain_pct(scheme), P::BACKOFF_GAIN_PCT);
                assert_eq!(AnyScheme::backoff_ceiling_us(scheme), P::BACKOFF_CEILING_US);
                assert_eq!(AnyScheme::ro_commit_skips_ts(scheme), P::RO_COMMIT_SKIPS_TS);
            });
        }
    }
}
