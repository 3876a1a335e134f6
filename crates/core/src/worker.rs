//! Per-thread worker contexts — the public transaction API — and the
//! multi-threaded benchmark drivers.
//!
//! [`WorkerCtx`] is generic over a [`CcProtocol`] impl: the benchmark
//! drivers instantiate it with the configured scheme's static type (via
//! `dispatch_protocol!`, once per run), so the steady-state loop contains
//! no scheme dispatch at all — the protocol inlines into the access
//! path. The default type parameter, [`AnyScheme`], recovers classic
//! enum dispatch (one match per operation) for callers that cannot name
//! the scheme in their types; [`crate::db::Database::worker`] hands out
//! that flavor.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use abyss_common::{AbortReason, DbError, Key, PartId, Phase, RowIdx, RunStats, TableId, Ts};
use abyss_storage::{MemPool, Schema};

use crate::backoff::BackoffCtl;
use crate::db::Database;
use crate::obs::PhaseClock;
use crate::schemes::{AnyScheme, CcProtocol, ReadRef, SchemeEnv};
use crate::ts::TsHandle;
use crate::txn::{make_txn_id, NodeSetEntry, RedoEntry, TxnState};

/// Errors surfaced by the transaction API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction must abort (possibly retryable).
    Abort(AbortReason),
    /// A non-transactional error (missing key, bad schema, ...).
    Db(DbError),
}

impl From<AbortReason> for TxnError {
    fn from(r: AbortReason) -> Self {
        TxnError::Abort(r)
    }
}

impl From<DbError> for TxnError {
    fn from(e: DbError) -> Self {
        TxnError::Db(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Abort(r) => write!(f, "transaction aborted: {r}"),
            TxnError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A per-thread execution context. Create one per worker thread with
/// [`Database::worker`]; it is `Send` but not `Sync` (one thread at a
/// time), mirroring the paper's one-worker-per-core model.
///
/// The type parameter is the concurrency-control protocol the context
/// executes (see the module docs); the default, [`AnyScheme`], dispatches
/// on the database's configured scheme at runtime.
pub struct WorkerCtx<P: CcProtocol = AnyScheme> {
    pub(crate) db: Arc<Database>,
    pub(crate) worker: u32,
    pub(crate) ts_handle: TsHandle,
    pub(crate) seq: u64,
    pub(crate) pool: MemPool,
    pub(crate) st: TxnState,
    /// Per-worker statistics (commits/aborts recorded by the driver; wait
    /// time recorded by the schemes).
    pub stats: RunStats,
    in_txn: bool,
    /// When the current attempt began — the per-attempt latency clock
    /// behind [`RunStats::commit_latency`] / [`RunStats::abort_latency`].
    attempt_started: Instant,
    /// Per-phase attempt accounting (no-op unless `cfg.breakdown`).
    phases: PhaseClock,
    /// Cheap xorshift state for abort backoff jitter.
    jitter: u64,
    /// Consecutive scheduler aborts of the current template (drives the
    /// exponential abort penalty; reset on commit).
    consec_aborts: u32,
    /// Adaptive AIMD backoff controller (`cfg.adaptive_backoff` only;
    /// `None` keeps the paper's fixed escalation schedule bit-for-bit).
    backoff_ctl: Option<BackoffCtl>,
    /// SILO: this worker's previous commit TID (epoch-composed, see
    /// [`crate::epoch`]); successive commit TIDs are strictly increasing.
    last_tid: u64,
    /// `fn() -> P` keeps the context `Send` regardless of `P`.
    _protocol: PhantomData<fn() -> P>,
}

impl<P: CcProtocol> WorkerCtx<P> {
    pub(crate) fn new(db: Arc<Database>, worker: u32) -> Self {
        assert!(
            P::STATIC_SCHEME.is_none_or(|s| s == db.cfg.scheme),
            "protocol {:?} instantiated against a {} database",
            P::STATIC_SCHEME,
            db.cfg.scheme
        );
        let ts_handle = db.ts.handle(worker);
        let phases = PhaseClock::new(db.cfg.breakdown);
        let backoff_ctl = db.cfg.adaptive_backoff.then(|| {
            let scheme = db.cfg.scheme;
            BackoffCtl::new(P::backoff_gain_pct(scheme), P::backoff_ceiling_us(scheme))
        });
        Self {
            db,
            worker,
            ts_handle,
            seq: 0,
            pool: MemPool::new(),
            st: TxnState::default(),
            stats: RunStats::default(),
            in_txn: false,
            attempt_started: Instant::now(),
            phases,
            jitter: jitter_seed(worker),
            consec_aborts: 0,
            backoff_ctl,
            last_tid: 0,
            _protocol: PhantomData,
        }
    }

    /// The worker id.
    pub fn worker_id(&self) -> u32 {
        self.worker
    }

    /// The database this context executes against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The timestamp of the current transaction (0 when the scheme uses
    /// none).
    pub fn current_ts(&self) -> Ts {
        self.st.ts
    }

    /// SILO: the TID of this worker's most recent commit (0 before the
    /// first one). Other schemes always report 0.
    pub fn last_commit_tid(&self) -> u64 {
        self.last_tid
    }

    pub(crate) fn env(&mut self) -> SchemeEnv<'_> {
        SchemeEnv {
            db: &self.db,
            st: &mut self.st,
            pool: &mut self.pool,
            worker: self.worker,
            stats: &mut self.stats,
            ts: &mut self.ts_handle,
            last_tid: &mut self.last_tid,
            phases: &mut self.phases,
        }
    }

    /// Begin a transaction. `partitions` must list every partition the
    /// transaction will touch (H-STORE requirement; other schemes ignore
    /// it). `reuse_ts` re-installs a prior timestamp (WAIT_DIE restarts
    /// keep their age; everything else must pass `None`).
    pub fn begin(&mut self, partitions: &[PartId], reuse_ts: Option<Ts>) -> Result<(), TxnError> {
        self.begin_inner(partitions, reuse_ts, false)
    }

    /// [`begin`](Self::begin) with the read-only fast-path flag. The flag
    /// is per-attempt (never sticky — a stale hint on a writing
    /// transaction would skip the WAL's epoch registration and let the
    /// group-commit horizon fence past an unflushed record), so only the
    /// retry loops thread it and everything else passes `false`.
    fn begin_inner(
        &mut self,
        partitions: &[PartId],
        reuse_ts: Option<Ts>,
        read_only: bool,
    ) -> Result<(), TxnError> {
        assert!(!self.in_txn, "begin() while a transaction is active");
        self.seq += 1;
        self.attempt_started = Instant::now();
        self.phases.start_attempt();
        self.st.txn_id = make_txn_id(self.worker, self.seq);
        self.db.trace_event(
            self.worker,
            self.st.txn_id,
            crate::obs::TraceEventKind::Begin,
        );
        let scheme = self.db.cfg.scheme;
        self.st.ts = if P::needs_ts(scheme) {
            match reuse_ts {
                Some(ts) if P::ts_reuse_on_restart(scheme) => ts,
                _ => {
                    self.stats.ts_allocated += 1;
                    self.phases.set(Phase::TsAlloc);
                    let ts = self.ts_handle.alloc();
                    self.phases.set(Phase::Manager);
                    ts
                }
            }
        } else {
            0
        };
        if P::tracks_waits(scheme) {
            self.db.waits.set_active(self.worker, self.st.txn_id);
        }
        self.st.read_only = read_only;
        if P::uses_epoch(scheme) || (self.db.wal.is_some() && !read_only) {
            // Register in the current epoch (SILO: commit identity + GC;
            // TICTOC: the quiescence horizon alone; with logging on,
            // every scheme: the group-commit flush horizon — a worker
            // stays registered from begin until after its WAL append, so
            // `safe_epoch` bounds the epochs unflushed records can carry).
            // Read-only fast path: a transaction that statically cannot
            // write never appends a WAL record, so when the registration
            // exists only for the flush horizon it is skipped.
            self.db.epoch.enter(self.worker);
        }
        self.in_txn = true;
        if let Err(r) = P::begin(&mut self.env(), partitions) {
            self.rollback(r);
            return Err(TxnError::Abort(r));
        }
        // Begin bookkeeping done; the application body runs next.
        self.phases.set(Phase::UsefulWork);
        Ok(())
    }

    /// Post-access delete guard: the key→row binding must still hold
    /// *after* the scheme admitted the access. A concurrent transactional
    /// delete that committed between our index probe and the scheme's
    /// admission has already withdrawn the entry (2PL holds the X lock
    /// through its commit-time removal; OCC/SILO bump the word; MVCC
    /// resolves after removal), so a stale row reference surfaces here as
    /// the same `KeyNotFound` a fresh probe would produce — instead of
    /// resurrecting the dead row. Schemes with `GUARDS_DELETED = false`
    /// need no probe (TIMESTAMP tombstones deleted rows with `wts = ∞`;
    /// H-STORE's partition ownership excludes concurrent deleters).
    fn check_not_deleted(&self, table: TableId, key: Key, row: RowIdx) -> Result<(), TxnError> {
        if !P::guards_deleted(self.db.cfg.scheme) {
            return Ok(());
        }
        if self.db.indexes[table as usize].find(key) == Some(row) {
            Ok(())
        } else {
            Err(TxnError::Db(DbError::KeyNotFound { table, key }))
        }
    }

    /// Read the row for `key`, returning its bytes. Under 2PL/H-STORE this
    /// is the row in place (stable until commit); under the T/O schemes it
    /// is the transaction's private copy.
    pub fn read(&mut self, table: TableId, key: Key) -> Result<&[u8], TxnError> {
        debug_assert!(self.in_txn, "read outside a transaction");
        self.phases.set(Phase::Index);
        let row = self.db.index_get(table, key)?;
        let len = self.db.tables[table as usize].row_size();
        self.phases.set(Phase::Manager);
        let r = P::read(&mut self.env(), table, row)?;
        self.check_not_deleted(table, key, row)?;
        self.phases.set(Phase::UsefulWork);
        Ok(match r {
            // SAFETY: the pointer targets the table arena; the scheme
            // guarantees stability until commit/abort, and `&mut self`
            // prevents any interleaved write through this context.
            ReadRef::InPlace { ptr, len } => unsafe { std::slice::from_raw_parts(ptr, len) },
            ReadRef::Rbuf(i) => &self.st.rbuf[i].data[..len],
        })
    }

    /// Read one `u64` column of `key`'s row.
    pub fn read_u64(&mut self, table: TableId, key: Key, col: usize) -> Result<u64, TxnError> {
        // Resolve the column before the read borrows `self` mutably.
        let off = self.db.schema(table).offset(col);
        let data = self.read(table, key)?;
        Ok(abyss_storage::row::get_u64_at(data, off))
    }

    /// When logging is on: a pool block (plus the row length) to capture
    /// a write's after-image into, right where the scheme applies the
    /// user's mutation — scheme-independent, whether the bytes land in a
    /// private workspace (T/O, OCC) or the table arena (2PL, H-STORE).
    fn log_capture_buf(
        &mut self,
        table: TableId,
    ) -> Option<(abyss_storage::mempool::PoolBlock, usize)> {
        if self.db.wal.is_some() {
            let len = self.db.tables[table as usize].row_size();
            // Uninit is safe: the wrapper copies the full `len` prefix and
            // the WAL append reads exactly that prefix.
            Some((self.pool.alloc_uninit(len), len))
        } else {
            None
        }
    }

    /// Record `key`'s captured after-image in the transaction's redo
    /// buffer (latest write per key wins).
    fn redo_put(&mut self, table: TableId, key: Key, image: abyss_storage::mempool::PoolBlock) {
        if let Some(e) = self
            .st
            .redo
            .iter_mut()
            .find(|e| e.table == table && e.key == key)
        {
            if let Some(old) = e.image.replace(image) {
                self.pool.free(old);
            }
            return;
        }
        self.st.redo.push(RedoEntry {
            table,
            key,
            image: Some(image),
        });
    }

    /// Record `key`'s deletion in the transaction's redo buffer.
    fn redo_del(&mut self, table: TableId, key: Key) {
        if let Some(e) = self
            .st
            .redo
            .iter_mut()
            .find(|e| e.table == table && e.key == key)
        {
            if let Some(old) = e.image.take() {
                self.pool.free(old);
            }
            return;
        }
        self.st.redo.push(RedoEntry {
            table,
            key,
            image: None,
        });
    }

    /// Read-modify-write the row for `key`: `f` receives the schema and
    /// the (current) row image to mutate.
    pub fn update(
        &mut self,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), TxnError> {
        debug_assert!(self.in_txn, "update outside a transaction");
        debug_assert!(
            !self.st.read_only,
            "update under the read-only fast path (template mislabeled)"
        );
        self.phases.set(Phase::Index);
        let row = self.db.index_get(table, key)?;
        self.phases.set(Phase::Manager);
        let mut cap = self.log_capture_buf(table);
        let wrap = |s: &Schema, d: &mut [u8]| {
            f(s, d);
            if let Some((buf, len)) = cap.as_mut() {
                buf[..*len].copy_from_slice(&d[..*len]);
            }
        };
        let res = P::write(&mut self.env(), table, row, wrap);
        match (res, cap) {
            (Ok(()), Some((buf, _))) => {
                self.redo_put(table, key, buf);
            }
            (Ok(()), None) => {}
            (Err(r), cap) => {
                if let Some((buf, _)) = cap {
                    self.pool.free(buf);
                }
                return Err(TxnError::Abort(r));
            }
        }
        let r = self.check_not_deleted(table, key, row);
        self.phases.set(Phase::UsefulWork);
        r
    }

    /// Atomically add `delta` to a `u64` column, returning the previous
    /// value as this transaction observes it (TPC-C's `D_NEXT_O_ID`).
    pub fn update_counter(
        &mut self,
        table: TableId,
        key: Key,
        col: usize,
        delta: u64,
    ) -> Result<u64, TxnError> {
        let mut old = 0;
        self.update(table, key, |schema, row| {
            old = abyss_storage::row::fetch_add_u64(schema, row, col, delta);
        })?;
        Ok(old)
    }

    /// Insert a fresh row under `key`; `f` initializes the image.
    pub fn insert(
        &mut self,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), TxnError> {
        debug_assert!(self.in_txn, "insert outside a transaction");
        debug_assert!(
            !self.st.read_only,
            "insert under the read-only fast path (template mislabeled)"
        );
        // The whole insert (index publication + CC registration) counts
        // as Manager; the user's init closure runs inside the span.
        self.phases.set(Phase::Manager);
        let mut cap = self.log_capture_buf(table);
        let wrap = |s: &Schema, d: &mut [u8]| {
            f(s, d);
            if let Some((buf, len)) = cap.as_mut() {
                buf[..*len].copy_from_slice(&d[..*len]);
            }
        };
        let res = P::insert(&mut self.env(), table, key, wrap);
        let r = match (res, cap) {
            (Ok(()), Some((buf, _))) => {
                self.redo_put(table, key, buf);
                Ok(())
            }
            (Ok(()), None) => Ok(()),
            (Err(r), cap) => {
                if let Some((buf, _)) = cap {
                    self.pool.free(buf);
                }
                Err(TxnError::Abort(r))
            }
        };
        self.phases.set(Phase::UsefulWork);
        r
    }

    /// Transactionally delete `key`'s row: the hash and ordered indexes
    /// are maintained together, and an abort restores them. Eager schemes
    /// (2PL holds the X lock and withdraws at commit; H-STORE withdraws
    /// immediately under partition ownership); buffered schemes register
    /// the delete and apply it during their commit's write phase.
    pub fn delete(&mut self, table: TableId, key: Key) -> Result<(), TxnError> {
        debug_assert!(self.in_txn, "delete outside a transaction");
        debug_assert!(
            !self.st.read_only,
            "delete under the read-only fast path (template mislabeled)"
        );
        self.phases.set(Phase::Index);
        let row = self.db.index_get(table, key)?;
        self.phases.set(Phase::Manager);
        P::delete(&mut self.env(), table, key, row).map_err(TxnError::Abort)?;
        if self.db.wal.is_some() {
            self.redo_del(table, key);
        }
        let r = self.check_not_deleted(table, key, row);
        self.phases.set(Phase::UsefulWork);
        r
    }

    /// Range-scan `table` over `low..=high` (requires an ordered index),
    /// invoking `f` with each qualifying row. Returns the number of rows
    /// observed. Phantom protection is per scheme (each protocol picks
    /// one of the drivers below):
    ///
    /// * **2PL** — a next-key walk: each row (plus the first row beyond
    ///   `high`, or the table's +∞ gap anchor) is S-locked *before* the
    ///   gap below it is trusted, and inserters take an instant X on their
    ///   successor, so no key can appear in a scanned gap;
    /// * **TIMESTAMP / MVCC** — the scan tags every visited leaf with its
    ///   timestamp (`scan_rts`); structural writers with smaller
    ///   timestamps abort at commit, and the scan revalidates leaf
    ///   versions after its reads (MVCC additionally skips rows invisible
    ///   at its snapshot);
    /// * **OCC / SILO / TICTOC** — the visited leaves and their versions
    ///   join the transaction's node set, re-validated at commit
    ///   (Silo/Masstree);
    /// * **H-STORE** — partition ownership already serializes the scan.
    pub fn scan(
        &mut self,
        table: TableId,
        low: Key,
        high: Key,
        mut f: impl FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        debug_assert!(self.in_txn, "scan outside a transaction");
        self.db.require_ordered(table)?;
        self.stats.scans += 1;
        // The whole scan (tree walk + per-row admission) counts as Index;
        // waits inside it are deducted by `note_wait` as usual.
        self.phases.set(Phase::Index);
        let r = P::scan(self, table, low, high, &mut f);
        self.phases.set(Phase::UsefulWork);
        r
    }

    /// Sum one `u64` column over a key range (scan convenience).
    pub fn scan_sum_u64(
        &mut self,
        table: TableId,
        low: Key,
        high: Key,
        col: usize,
    ) -> Result<(usize, u64), TxnError> {
        let mut sum = 0u64;
        let n = self.scan(table, low, high, |_, schema, data| {
            sum = sum.wrapping_add(abyss_storage::row::get_u64(schema, data, col));
        })?;
        Ok((n, sum))
    }

    /// H-STORE scan driver: the owned partitions make the walk exclusive.
    pub(crate) fn scan_hstore(
        &mut self,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        let sr = self.db.require_ordered(table)?.scan(low, high);
        self.stats.scan_retries += sr.retries;
        let t = &self.db.tables[table as usize];
        for &(k, row) in &sr.entries {
            // SAFETY: the transaction owns every partition it touches.
            let data = unsafe { t.row(row) };
            f(k, t.schema(), data);
        }
        Ok(sr.entries.len())
    }

    /// TIMESTAMP / MVCC scan driver: leaf-tag the range, read per row
    /// (through [`CcProtocol::read_for_scan`], so MVCC skips rows
    /// invisible at its snapshot), then revalidate leaf versions (see
    /// [`WorkerCtx::scan`]).
    pub(crate) fn scan_to(
        &mut self,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        let ts = self.st.ts;
        let mut attempts = 0u32;
        // Read copies taken by an attempt that fails leaf revalidation are
        // dead; recycle them instead of letting them pile up in rbuf until
        // transaction end (64 retries × scan length would otherwise pin
        // that many pool blocks on the hot scan path).
        let rbuf_base = self.st.rbuf.len();
        'retry: loop {
            attempts += 1;
            if attempts > 64 {
                return Err(TxnError::Abort(AbortReason::ValidationFail));
            }
            for rc in self.st.rbuf.drain(rbuf_base..) {
                self.pool.free(rc.data);
            }
            let (entries, leaves) = {
                let tree = self.db.require_ordered(table)?;
                let sr = tree.scan(low, high);
                self.stats.scan_retries += sr.retries;
                (sr.entries, sr.leaves)
            };
            {
                let tree = self.db.require_ordered(table)?;
                for &(leaf, _) in &leaves {
                    // Publish "a transaction at `ts` read this key range"
                    // *before* reading rows: structural writers with
                    // smaller timestamps will abort against it.
                    tree.leaf_bump_scan_rts(leaf, ts);
                    if tree.leaf_del_wts(leaf) > ts {
                        // A delete serialized after us already removed a
                        // key from this range; this snapshot cannot be
                        // reconstructed.
                        return Err(TxnError::Abort(AbortReason::TsOrderViolation));
                    }
                }
            }
            let mut got: Vec<(Key, usize)> = Vec::with_capacity(entries.len());
            for &(k, row) in &entries {
                let r = P::read_for_scan(&mut self.env(), table, row).map_err(TxnError::Abort)?;
                match r {
                    Some(ReadRef::Rbuf(i)) => got.push((k, i)),
                    Some(ReadRef::InPlace { .. }) => {
                        unreachable!("T/O reads always copy")
                    }
                    None => {} // created after this snapshot: skip
                }
            }
            // Revalidate after the reads: any structural change since the
            // leaf snapshot (insert by a later ts, delete, split) restarts
            // the scan so the entry list and the row reads agree.
            let changed = {
                let tree = self.db.require_ordered(table)?;
                leaves.iter().any(|&(l, v)| tree.leaf_version(l) != v)
            };
            if changed {
                self.stats.scan_retries += 1;
                continue 'retry;
            }
            let t = &self.db.tables[table as usize];
            let schema = t.schema();
            let len = t.row_size();
            for &(k, i) in &got {
                f(k, schema, &self.st.rbuf[i].data[..len]);
            }
            return Ok(got.len());
        }
    }

    /// OCC / SILO / TICTOC scan driver: record the node set, read
    /// optimistically.
    pub(crate) fn scan_occ(
        &mut self,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        let (entries, leaves) = {
            let tree = self.db.require_ordered(table)?;
            let sr = tree.scan(low, high);
            self.stats.scan_retries += sr.retries;
            (sr.entries, sr.leaves)
        };
        for &(leaf, version) in &leaves {
            self.st.node_set.push(NodeSetEntry {
                table,
                leaf,
                version,
            });
        }
        let mut got: Vec<(Key, usize)> = Vec::with_capacity(entries.len());
        for &(k, row) in &entries {
            let r = P::read(&mut self.env(), table, row).map_err(TxnError::Abort)?;
            match r {
                ReadRef::Rbuf(i) => got.push((k, i)),
                ReadRef::InPlace { .. } => unreachable!("OCC reads always copy"),
            }
        }
        let t = &self.db.tables[table as usize];
        let schema = t.schema();
        let len = t.row_size();
        for &(k, i) in &got {
            f(k, schema, &self.st.rbuf[i].data[..len]);
        }
        Ok(got.len())
    }

    /// Commit. May abort (OCC validation, insert races); the transaction
    /// is fully rolled back before the error returns. The scheme's commit
    /// passes its WAL commit point inside its own exclusion window (locks
    /// still held / prewrites pending / latches validated).
    pub fn commit(&mut self) -> Result<(), TxnError> {
        debug_assert!(self.in_txn, "commit outside a transaction");
        self.phases.set(Phase::Manager);
        match P::commit(&mut self.env()) {
            Ok(()) => {
                // The redo record was appended at the scheme's WAL commit
                // point, inside its exclusion window and before this
                // worker exits its epoch slot (finish) — the group-commit
                // horizon can never fence past a committed-but-unappended
                // record.
                debug_assert!(
                    self.st.redo.is_empty() || self.db.wal.is_none() || self.st.log_epoch != 0,
                    "scheme committed a write set without passing its WAL commit point"
                );
                self.stats
                    .commit_latency
                    .record(self.attempt_started.elapsed().as_nanos() as u64);
                if let Some(delta) = self.phases.finish_commit(&mut self.stats) {
                    self.db.phase_accumulate(&delta);
                }
                self.db.trace_event(
                    self.worker,
                    self.st.txn_id,
                    crate::obs::TraceEventKind::Commit,
                );
                self.finish();
                Ok(())
            }
            Err(reason) => {
                self.rollback(reason);
                Err(TxnError::Abort(reason))
            }
        }
    }

    /// Abort the current transaction (user-initiated or after an op
    /// returned an abort error). Rolls everything back.
    pub fn abort(&mut self, reason: AbortReason) {
        debug_assert!(self.in_txn, "abort outside a transaction");
        self.rollback(reason);
    }

    fn rollback(&mut self, reason: AbortReason) {
        self.phases.set(Phase::Abort);
        P::abort(&mut self.env());
        self.stats
            .abort_latency
            .record(self.attempt_started.elapsed().as_nanos() as u64);
        if let Some(delta) = self.phases.finish_abort(&mut self.stats) {
            self.db.phase_accumulate(&delta);
        }
        self.db.trace_event(
            self.worker,
            self.st.txn_id,
            crate::obs::TraceEventKind::Abort(reason),
        );
        self.finish();
    }

    fn finish(&mut self) {
        let scheme = self.db.cfg.scheme;
        if P::tracks_waits(scheme) {
            self.db.waits.clear_active(self.worker);
        }
        // Mirror of begin_inner's enter condition — evaluated before
        // `reset` clears `read_only`, so enter/exit always pair up.
        if P::uses_epoch(scheme) || (self.db.wal.is_some() && !self.st.read_only) {
            self.db.epoch.exit(self.worker);
        }
        self.st.reset(&mut self.pool);
        self.in_txn = false;
    }

    /// Run `body` as a transaction, retrying scheduler aborts until it
    /// commits. Returns the body's value, the first non-retryable abort,
    /// or the first database error.
    pub fn run_txn<R>(
        &mut self,
        partitions: &[PartId],
        body: impl FnMut(&mut Self) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        self.run_txn_with_hint(partitions, false, body)
    }

    /// [`run_txn`](Self::run_txn) with a static read-only hint: `true`
    /// promises the body performs no update/insert/delete (debug-asserted)
    /// and lets the engine skip write-side bookkeeping the transaction can
    /// never need — WAL-horizon epoch registration, OCC's
    /// validation-timestamp allocation. The executor passes
    /// `tmpl.is_read_only()` here.
    pub fn run_txn_with_hint<R>(
        &mut self,
        partitions: &[PartId],
        read_only: bool,
        mut body: impl FnMut(&mut Self) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        // The abort penalty escalates per retry of *this* template only.
        self.consec_aborts = 0;
        let mut reuse_ts = None;
        loop {
            match self.begin_inner(partitions, reuse_ts, read_only) {
                Ok(()) => {}
                Err(TxnError::Abort(r)) if r.is_retryable() => {
                    self.stats.record_abort(r);
                    self.backoff();
                    continue;
                }
                Err(e) => return Err(e),
            }
            reuse_ts = Some(self.st.ts);
            match body(self) {
                Ok(v) => match self.commit() {
                    Ok(()) => {
                        if let Some(ctl) = self.backoff_ctl.as_mut() {
                            ctl.on_commit();
                        }
                        return Ok(v);
                    }
                    Err(TxnError::Abort(r)) if r.is_retryable() => {
                        self.stats.record_abort(r);
                        self.backoff();
                    }
                    Err(e) => return Err(e),
                },
                Err(TxnError::Abort(r)) => {
                    self.abort(r);
                    if r.is_retryable() {
                        self.stats.record_abort(r);
                        self.backoff();
                    } else {
                        return Err(TxnError::Abort(r));
                    }
                }
                Err(e) => {
                    self.abort(AbortReason::UserAbort);
                    return Err(e);
                }
            }
        }
    }

    /// Randomized abort penalty before a restart (the paper's
    /// restart-in-same-worker model; DBx1000's `ABORT_PENALTY` is 25 µs).
    ///
    /// Default (fixed) schedule: the first retry only spins briefly, but
    /// repeated aborts of the same template escalate exponentially into
    /// real (descheduling) sleeps. Without the escalation, hot-key restart
    /// storms under the T/O schemes can livelock an oversubscribed host:
    /// every worker keeps re-reading with a fresh timestamp, pushing the
    /// tuple's `rts` past every concurrent writer, and no one ever
    /// commits.
    ///
    /// With `cfg.adaptive_backoff` the delay comes from the AIMD
    /// controller instead ([`crate::backoff`]): it tracks the worker's
    /// windowed abort rate, so the penalty follows *system* contention
    /// rather than one template's streak.
    pub(crate) fn backoff(&mut self) {
        self.consec_aborts = self.consec_aborts.saturating_add(1);
        let jitter = self.jitter_draw();
        if let Some(ctl) = self.backoff_ctl.as_mut() {
            let delay = ctl.on_abort();
            self.stats.backoff_delay_ns = self.stats.backoff_delay_ns.max(delay);
            if delay == 0 {
                return;
            }
            self.stats.backoffs += 1;
            // Jitter into [delay/2, 1.5·delay] so co-aborting workers
            // don't re-collide on a synchronized retry edge.
            let ns = delay / 2 + jitter % (delay + 1);
            self.stats.backoff_ns += ns;
            if ns < 4_000 {
                // Too short for the scheduler: busy-wait it out.
                let until = Instant::now() + Duration::from_nanos(ns);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            } else if self.db.park.early_yield() {
                // Oversubscribed host: hand the core to a sibling instead
                // of descheduling for a kernel-rounded sleep.
                let until = Instant::now() + Duration::from_nanos(ns);
                while Instant::now() < until {
                    std::thread::yield_now();
                }
            } else {
                std::thread::sleep(Duration::from_nanos(ns));
            }
            return;
        }
        if self.consec_aborts <= 2 {
            let spins = 64 + (jitter & 0x3FF);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            return;
        }
        // Base 25 µs, doubling per consecutive abort up to 1.6 ms, then
        // jittered into [base/2, 1.5·base) — worst case ≈ 2.4 ms.
        let shift = (self.consec_aborts - 3).min(6);
        let base_us = 25u64 << shift;
        let us = base_us / 2 + jitter % base_us;
        std::thread::sleep(Duration::from_micros(us));
    }

    /// Advance the xorshift64 state and return the next jitter draw.
    /// Factored out of [`backoff`](Self::backoff) so the seeding can be
    /// regression-tested without timing a real backoff.
    #[inline]
    pub(crate) fn jitter_draw(&mut self) -> u64 {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        self.jitter
    }
}

/// Backoff-jitter seed for `worker`: a SplitMix64 scramble of the worker
/// id, so every worker starts its xorshift from a distinct, well-mixed,
/// non-zero state.
///
/// The previous expression, `0x9E37_79B9 ^ u64::from(worker) << 16 | 1`,
/// parsed as `(0x9E37_79B9 ^ (worker << 16)) | 1` thanks to operator
/// precedence: seeds differed only in bits 16..16+log2(workers), so
/// neighboring workers' xorshift streams started highly correlated and
/// their backoff sleeps marched in near-lockstep — exactly the
/// synchronized restart storm backoff jitter exists to break up.
fn jitter_seed(worker: u32) -> u64 {
    let seed =
        abyss_common::rng::SplitMix64::new(0x9E37_79B9_7F4A_7C15 ^ u64::from(worker)).next_u64();
    // xorshift has a single absorbing zero state; SplitMix64 emits 0 for
    // exactly one seed, so guard it.
    if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    }
}

impl<P: CcProtocol> std::fmt::Debug for WorkerCtx<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("worker", &self.worker)
            .field("in_txn", &self.in_txn)
            .finish()
    }
}

/// Result of a timed multi-worker run.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Merged statistics (elapsed is in nanoseconds).
    pub stats: RunStats,
    /// Wall-clock time measured by the driver.
    pub wall: Duration,
}

impl BenchOutcome {
    /// Committed transactions per second.
    pub fn txn_per_sec(&self) -> f64 {
        self.stats.commits as f64 / self.wall.as_secs_f64()
    }
}

/// A per-worker transaction stream.
type Generator = Box<dyn FnMut() -> abyss_common::TxnTemplate + Send>;

/// Driver epilogue when logging is on: record the durable-epoch lag the
/// run ended with (group-commit ack latency, in epochs), then run the
/// clean-shutdown flush (workers are joined ⇒ quiescent) and export the
/// flush counters. `base` is the counter snapshot taken when the
/// measurement window opened (after warmup), so the exported flush/fsync
/// counts cover the same window as the workers' warmup-reset
/// `log_records`/`log_bytes` — not the process lifetime.
fn finalize_wal(db: &Arc<Database>, stats: &mut RunStats, base: Option<abyss_storage::WalStats>) {
    if let Some(w) = db.wal_stats() {
        stats.durable_epoch_lag = db.epoch_manager().current().saturating_sub(w.durable_epoch);
        db.log_flush_all();
        let w = db.wal_stats().expect("wal stats present");
        let base = base.unwrap_or_default();
        stats.log_flushes = w.flushes.saturating_sub(base.flushes);
        stats.log_fsyncs = w.fsyncs.saturating_sub(base.fsyncs);
    }
}

/// When the workers of a driven run stop.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// A wall-clock window: statistics reset after `warmup`, and the run
    /// ends after `warmup + measure`.
    Window { warmup: Duration, measure: Duration },
    /// Exactly this many templates per worker; the whole run is the
    /// window.
    Txns(u64),
}

/// The one run driver: spawn one thread per worker, each repeatedly
/// fetching a template from its generator and executing it to commit
/// until `stop` says otherwise, then join and merge every worker's stats.
///
/// Every worker pins itself per [`crate::config::EngineConfig::pin`],
/// constructs its context, and then parks on a ready-count start barrier;
/// the spawning thread releases all of them on one edge once the last
/// worker has reported in, and only then starts the clock. Without the
/// barrier, the first-spawned worker runs (and its warmup deadline
/// drifts) while later siblings are still paying thread-creation and
/// context-construction cost — stragglers then get measured mid-warmup.
///
/// The reported wall is, for [`Stop::Txns`], barrier release → last
/// worker finished; for [`Stop::Window`], the measured window as the stop
/// timer on the spawning thread saw it (warmup boundary → stop edge).
fn drive<P: CcProtocol>(
    db: &Arc<Database>,
    generators: Vec<Generator>,
    stop: Stop,
) -> BenchOutcome {
    let n = db.cfg.workers as usize;
    assert_eq!(generators.len(), n, "one generator per worker required");
    let pin = db.cfg.pin;
    let ready = AtomicU64::new(0);
    let running = AtomicBool::new(false);
    let stopped = AtomicBool::new(false);
    let mut stats = RunStats::default();
    // WAL counter snapshot at the warmup boundary, so the exported
    // flush/fsync counts match the workers' warmup-reset statistics.
    let mut warm_base = None;
    let wall = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (w, mut generator) in generators.into_iter().enumerate() {
            let db = Arc::clone(db);
            let (ready, running, stopped) = (&ready, &running, &stopped);
            handles.push(scope.spawn(move || {
                pin.apply(w as u32, n as u32);
                let mut ctx = WorkerCtx::<P>::new(db, w as u32);
                ready.fetch_add(1, Ordering::AcqRel);
                while !running.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                match stop {
                    Stop::Window { warmup, .. } => {
                        // All workers leave the barrier within one spin
                        // round, so each derives the shared warmup
                        // deadline from its own release.
                        let warm_deadline = Instant::now() + warmup;
                        let mut warmed = false;
                        let mut measured_start = Instant::now();
                        while !stopped.load(Ordering::Relaxed) {
                            if !warmed && Instant::now() >= warm_deadline {
                                ctx.stats = RunStats::default();
                                measured_start = Instant::now();
                                warmed = true;
                            }
                            crate::executor::run_to_commit(&mut ctx, &generator());
                        }
                        ctx.stats.elapsed = measured_start.elapsed().as_nanos() as u64;
                    }
                    Stop::Txns(txns) => {
                        let began = Instant::now();
                        for _ in 0..txns {
                            crate::executor::run_to_commit(&mut ctx, &generator());
                        }
                        ctx.stats.elapsed = began.elapsed().as_nanos() as u64;
                    }
                }
                ctx.stats
            }));
        }
        while ready.load(Ordering::Acquire) < n as u64 {
            std::hint::spin_loop();
        }
        let start_edge = Instant::now();
        running.store(true, Ordering::Release);
        // Stop timer (windowed runs): snapshot the WAL counters when the
        // warmup ends, arm the stop flag when the measurement ends.
        let window = match stop {
            Stop::Window { warmup, measure } => {
                std::thread::sleep(warmup);
                let warm_at = Instant::now();
                warm_base = db.wal_stats();
                std::thread::sleep(measure);
                stopped.store(true, Ordering::Relaxed);
                Some(warm_at.elapsed())
            }
            Stop::Txns(_) => None,
        };
        for h in handles {
            stats.merge(&h.join().expect("worker panicked"));
        }
        window.unwrap_or_else(|| start_edge.elapsed())
    });
    finalize_wal(db, &mut stats, warm_base);
    BenchOutcome { stats, wall }
}

/// Drive `db.config().workers` threads, each repeatedly fetching a
/// transaction template from its generator and executing it to commit
/// (retrying scheduler aborts). Statistics reset after `warmup`; the run
/// ends after `warmup + measure`. The worker loop is monomorphized over
/// the configured scheme — this call is the run's single dispatch point.
pub fn run_workers(
    db: &Arc<Database>,
    generators: Vec<Generator>,
    warmup: Duration,
    measure: Duration,
) -> BenchOutcome {
    let stop = Stop::Window { warmup, measure };
    crate::schemes::dispatch_protocol!(db.cfg.scheme, P => drive::<P>(db, generators, stop))
}

/// Like [`run_workers`], but each worker executes **exactly**
/// `txns_per_worker` templates instead of running for a wall-clock window.
/// With one worker (no cross-thread interleaving) the outcome — commit and
/// abort counts, final database state — is a pure function of the
/// generator seeds, which is what the seeded-replay determinism tests pin:
/// any nondeterminism they catch is a regression in the workload
/// generators or the engine, not scheduling noise.
pub fn run_workers_bounded(
    db: &Arc<Database>,
    generators: Vec<Generator>,
    txns_per_worker: u64,
) -> BenchOutcome {
    let stop = Stop::Txns(txns_per_worker);
    crate::schemes::dispatch_protocol!(db.cfg.scheme, P => drive::<P>(db, generators, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abyss_common::CcScheme;
    use abyss_storage::{row, Catalog, Schema};

    fn db(scheme: CcScheme, workers: u32) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 1000);
        let db = Database::new(crate::config::EngineConfig::new(scheme, workers), cat).unwrap();
        db.load_table(0, 0..100u64, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, 100);
        })
        .unwrap();
        db
    }

    fn smoke_worker<P: CcProtocol>(db: &Arc<Database>) {
        let scheme = db.scheme();
        let mut ctx = db.worker_as::<P>(0);
        // read + update + commit
        ctx.run_txn(&[0, 1], |t| {
            let v = t.read_u64(0, 5, 1)?;
            assert_eq!(v, 100);
            t.update(0, 5, |s, r| row::set_u64(s, r, 1, v + 1))?;
            Ok(())
        })
        .unwrap();
        // the write is visible to the next transaction
        ctx.run_txn(&[0, 1], |t| {
            assert_eq!(t.read_u64(0, 5, 1)?, 101);
            Ok(())
        })
        .unwrap();
        // user abort rolls back
        let r: Result<(), TxnError> = ctx.run_txn(&[0, 1], |t| {
            t.update(0, 5, |s, r| row::set_u64(s, r, 1, 999))?;
            Err(TxnError::Abort(AbortReason::UserAbort))
        });
        assert!(matches!(r, Err(TxnError::Abort(AbortReason::UserAbort))));
        ctx.run_txn(&[0, 1], |t| {
            assert_eq!(
                t.read_u64(0, 5, 1)?,
                101,
                "{scheme}: user abort must roll back"
            );
            Ok(())
        })
        .unwrap();
        // counter update returns the old value
        let old = ctx
            .run_txn(&[0, 1], |t| t.update_counter(0, 7, 1, 5))
            .unwrap();
        assert_eq!(old, 100);
        assert_eq!(ctx.run_txn(&[0, 1], |t| t.read_u64(0, 7, 1)).unwrap(), 105);
        // insert then read back
        ctx.run_txn(&[0, 1], |t| {
            t.insert(0, 500, |s, r| {
                row::set_u64(s, r, 0, 500);
                row::set_u64(s, r, 1, 42);
            })
        })
        .unwrap();
        assert_eq!(ctx.run_txn(&[0, 1], |t| t.read_u64(0, 500, 1)).unwrap(), 42);
    }

    /// The same smoke transaction flow through the runtime shim *and* the
    /// monomorphized protocol — both dispatch flavors must behave alike.
    fn smoke_single_worker(scheme: CcScheme) {
        let shim_db = db(scheme, 2);
        smoke_worker::<AnyScheme>(&shim_db);
        let mono_db = db(scheme, 2);
        crate::schemes::dispatch_protocol!(scheme, P => smoke_worker::<P>(&mono_db));
    }

    #[test]
    fn single_worker_no_wait() {
        smoke_single_worker(CcScheme::NoWait);
    }

    /// Regression: backoff jitter seeds must be distinct, well-mixed, and
    /// non-zero per worker. The old seed expression differed only in a few
    /// middle bits across workers (and not at all in the xorshift-relevant
    /// low/high bits), so neighboring workers drew near-identical jitter
    /// and backed off in lockstep.
    #[test]
    fn backoff_jitter_streams_differ_across_workers() {
        let db = db(CcScheme::NoWait, 4);
        let mut a = db.worker(0);
        let mut b = db.worker(1);
        let draws_a: Vec<u64> = (0..8).map(|_| a.jitter_draw()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.jitter_draw()).collect();
        for (i, (x, y)) in draws_a.iter().zip(&draws_b).enumerate() {
            assert_ne!(x, y, "draw {i} identical across workers");
            assert_ne!(*x, 0, "worker 0 draw {i} is zero (absorbing state)");
            assert_ne!(*y, 0, "worker 1 draw {i} is zero (absorbing state)");
        }
        // The sleep path uses `jitter % base_us`: the *low bits* must
        // decorrelate too, not just the full words.
        let low_a: Vec<u64> = draws_a.iter().map(|v| v % 25).collect();
        let low_b: Vec<u64> = draws_b.iter().map(|v| v % 25).collect();
        assert_ne!(low_a, low_b, "low-bit jitter identical across workers");
    }

    #[test]
    fn single_worker_dl_detect() {
        smoke_single_worker(CcScheme::DlDetect);
    }

    #[test]
    fn single_worker_wait_die() {
        smoke_single_worker(CcScheme::WaitDie);
    }

    #[test]
    fn single_worker_timestamp() {
        smoke_single_worker(CcScheme::Timestamp);
    }

    #[test]
    fn single_worker_mvcc() {
        smoke_single_worker(CcScheme::Mvcc);
    }

    #[test]
    fn single_worker_occ() {
        smoke_single_worker(CcScheme::Occ);
    }

    #[test]
    fn single_worker_hstore() {
        smoke_single_worker(CcScheme::HStore);
    }

    #[test]
    fn single_worker_silo() {
        smoke_single_worker(CcScheme::Silo);
    }

    #[test]
    fn single_worker_tictoc() {
        smoke_single_worker(CcScheme::TicToc);
    }

    /// The shim's hand-written scheme→scan-driver mapping must stay in
    /// lockstep with the static impls' `CcProtocol::scan` choices: run an
    /// identical insert/delete/scan history through both flavors and
    /// compare what the scans observed (rows and retry accounting).
    #[test]
    fn shim_and_mono_scan_drivers_agree() {
        fn scan_history<P: CcProtocol>(db: &Arc<Database>) -> (usize, u64, Vec<u64>) {
            let scheme = db.scheme();
            let parts: &[u32] = if scheme == CcScheme::HStore {
                &[0]
            } else {
                &[]
            };
            let mut ctx = db.worker_as::<P>(0);
            ctx.run_txn(parts, |t| {
                t.insert(0, 25, |s, d| {
                    row::set_u64(s, d, 0, 25);
                    row::set_u64(s, d, 1, 7)
                })
            })
            .unwrap();
            ctx.run_txn(parts, |t| t.delete(0, 22)).unwrap();
            let mut keys = Vec::new();
            let n = ctx
                .run_txn(parts, |t| {
                    keys.clear();
                    t.scan(0, 18, 27, |k, _, _| keys.push(k))
                })
                .unwrap();
            (n, ctx.stats.scans, keys)
        }
        for scheme in CcScheme::ALL {
            let build = || {
                let mut cat = Catalog::new();
                cat.add_ordered_table("t", Schema::key_plus_payload(2, 8), 100);
                let db = Database::new(crate::config::EngineConfig::new(scheme, 1), cat).unwrap();
                db.load_table(0, (0..40u64).filter(|k| k % 2 == 0), |s, r, k| {
                    row::set_u64(s, r, 0, k);
                    row::set_u64(s, r, 1, k)
                })
                .unwrap();
                db
            };
            let shim = scan_history::<AnyScheme>(&build());
            let mono = crate::schemes::dispatch_protocol!(scheme, P => scan_history::<P>(&build()));
            assert_eq!(shim, mono, "{scheme}: shim and mono scans diverged");
            assert_eq!(
                shim.2,
                vec![18, 20, 24, 25, 26],
                "{scheme}: wrong scan result"
            );
        }
    }

    #[test]
    #[should_panic(expected = "instantiated against")]
    fn mismatched_protocol_is_rejected() {
        let db = db(CcScheme::NoWait, 1);
        let _ = WorkerCtx::<crate::schemes::Silo>::new(db, 0);
    }

    #[test]
    fn insert_then_delete_then_abort_leaves_no_trace() {
        // Eager schemes publish inserts and withdraw deletes immediately;
        // an abort after insert+delete of the same key must not resurrect
        // the key from the delete's undo record.
        for scheme in [CcScheme::NoWait, CcScheme::HStore] {
            let mut cat = Catalog::new();
            cat.add_ordered_table("t", Schema::key_plus_payload(1, 8), 100);
            let db = Database::new(crate::config::EngineConfig::new(scheme, 2), cat).unwrap();
            let mut ctx = db.worker(0);
            let r: Result<(), TxnError> = ctx.run_txn(&[0, 1], |t| {
                t.insert(0, 7, |s, d| row::set_u64(s, d, 0, 7))?;
                t.delete(0, 7)?;
                Err(TxnError::Abort(AbortReason::UserAbort))
            });
            assert!(matches!(r, Err(TxnError::Abort(AbortReason::UserAbort))));
            assert!(
                db.peek(0, 7).is_err(),
                "{scheme}: aborted insert+delete resurrected the key"
            );
            // The key space is clean: a fresh insert succeeds.
            ctx.run_txn(&[0, 1], |t| t.insert(0, 7, |s, d| row::set_u64(s, d, 0, 7)))
                .unwrap();
            assert!(db.peek(0, 7).is_ok());
        }
    }

    #[test]
    fn missing_key_is_a_db_error_not_an_abort() {
        let db = db(CcScheme::NoWait, 1);
        let mut ctx = db.worker(0);
        ctx.begin(&[], None).unwrap();
        let r = ctx.read(0, 9999);
        assert!(matches!(r, Err(TxnError::Db(DbError::KeyNotFound { .. }))));
        ctx.abort(AbortReason::UserAbort);
    }
}
