//! The database: catalog-driven tables, indexes, per-tuple CC metadata, and
//! the shared machinery (timestamp allocator, park table, waits-for graph,
//! partition locks) that the scheme implementations coordinate through.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use abyss_common::fxhash;
use abyss_common::Padded;
use abyss_common::{CcScheme, DbError, Key, RowIdx, TableId};
use abyss_storage::btree::{GuardedInsert, LeafId};
use abyss_storage::wal::{self, RecOp, WalSet, WalStats};
use abyss_storage::{BPlusTree, BtreeHealth, Catalog, FsyncPolicy, HashIndex, Schema, Table};
use parking_lot::Mutex;

use crate::config::EngineConfig;
use crate::epoch::{EpochManager, EpochTicker};
use crate::meta::RowMeta;
use crate::obs::metrics::{MetricsSnapshot, TableMetrics};
use crate::obs::trace::{TraceDump, TraceEvent, TraceEventKind, TraceSet};
use crate::park::ParkTable;
use crate::schemes::hstore::PartState;
use crate::ts::SharedTs;
use crate::txn::TxnState;
use crate::waitsfor::WaitsFor;
use crate::worker::WorkerCtx;

/// A main-memory database running one concurrency-control scheme.
///
/// Construction allocates every table arena, hash index and per-tuple
/// metadata array up front; [`Database::load_table`] populates rows;
/// [`Database::worker`] creates per-thread contexts that execute
/// transactions (see [`crate::worker::WorkerCtx`]).
pub struct Database {
    pub(crate) cfg: EngineConfig,
    pub(crate) catalog: Catalog,
    pub(crate) tables: Vec<Table>,
    pub(crate) indexes: Vec<HashIndex>,
    /// Ordered (B+-tree) index per table marked `ordered` in the catalog.
    pub(crate) ordered: Vec<Option<BPlusTree>>,
    /// Per-table "+∞ key" lock anchor: 2PL next-key locking needs a
    /// lockable successor even when a scan range has none (see
    /// [`crate::txn::GAP_ROW`]).
    pub(crate) gap_meta: Vec<RowMeta>,
    pub(crate) meta: Vec<Box<[RowMeta]>>,
    pub(crate) ts: SharedTs,
    pub(crate) park: ParkTable,
    pub(crate) waits: WaitsFor,
    pub(crate) parts: Box<[Padded<Mutex<PartState>>]>,
    /// The epoch subsystem (SILO commit TIDs, quiescence detection). Always
    /// present — it is a handful of cache lines — but the background ticker
    /// only runs for schemes that consume epochs (or when logging makes
    /// every scheme consume them as the group-commit horizon).
    pub(crate) epoch: Arc<EpochManager>,
    /// The write-ahead log (None = durability off, the paper's setting).
    pub(crate) wal: Option<Arc<WalSet>>,
    /// Per-worker txn event rings (None = tracing off, the default; the
    /// event sites then cost one Option check).
    pub(crate) trace: Option<TraceSet>,
    /// Live per-phase attempt-time totals (None = breakdown off, the
    /// default). Workers flush one relaxed add per non-zero phase per
    /// attempt; `metrics_snapshot` reads them as gauges mid-run.
    pub(crate) phase_acc: Option<Box<[AtomicU64]>>,
    /// Commit-window serial numbers for WAL records of schemes without a
    /// natural commit ordinal (2PL, H-STORE, OCC) — drawn *inside* the
    /// committing transaction's exclusion window, so per-key serial order
    /// matches install order (see [`Database::wal_commit_point_csn`]).
    pub(crate) log_csn: AtomicU64,
    /// Background epoch ticker; advancing stops when the database drops.
    _ticker: Option<EpochTicker>,
    /// Background group-commit flusher; stops when the database drops.
    _flusher: Option<WalFlusher>,
}

impl Database {
    /// Build a database for `catalog` under `cfg`.
    pub fn new(cfg: EngineConfig, catalog: Catalog) -> Result<Arc<Self>, DbError> {
        cfg.validate().map_err(DbError::SchemaViolation)?;
        let mut tables = Vec::with_capacity(catalog.len());
        let mut indexes = Vec::with_capacity(catalog.len());
        let mut ordered = Vec::with_capacity(catalog.len());
        let mut gap_meta = Vec::with_capacity(catalog.len());
        let mut meta = Vec::with_capacity(catalog.len());
        for def in catalog.tables() {
            tables.push(Table::new(def.schema.clone(), def.capacity));
            indexes.push(HashIndex::new(def.id, def.capacity));
            ordered.push(def.ordered.then(|| BPlusTree::new(def.id)));
            gap_meta.push(RowMeta::default());
            let mut m = Vec::with_capacity(def.capacity as usize);
            m.resize_with(def.capacity as usize, RowMeta::default);
            meta.push(m.into_boxed_slice());
        }
        let parts_n = cfg.partitions as usize;
        let mut parts = Vec::with_capacity(parts_n);
        parts.resize_with(parts_n, || Padded::new(Mutex::new(PartState::default())));
        let epoch = Arc::new(EpochManager::new(cfg.workers));
        let wal = if cfg.log.enabled {
            let set = WalSet::open(
                &cfg.log.dir,
                cfg.workers,
                cfg.log.fsync,
                cfg.log.group_max_bytes,
            )
            .map_err(|e| DbError::Io(format!("open WAL in {}: {e}", cfg.log.dir.display())))?;
            Some(Arc::new(set))
        } else {
            None
        };
        // Epochs drive SILO commit TIDs and TICTOC GC — and, when logging
        // is on, the group-commit horizon for *every* scheme.
        let ticker = if (cfg.scheme.uses_epoch() || wal.is_some()) && cfg.epoch_interval_us > 0 {
            Some(EpochTicker::start(
                Arc::clone(&epoch),
                Duration::from_micros(cfg.epoch_interval_us),
            ))
        } else {
            None
        };
        let flusher = match &wal {
            Some(w) if cfg.log.group_interval_us > 0 => Some(WalFlusher::start(
                Arc::clone(w),
                Arc::clone(&epoch),
                Duration::from_micros(cfg.log.group_interval_us),
            )),
            _ => None,
        };
        // Oversubscription is decided against the cores the pin policy
        // actually lets workers run on, not the machine's core count — a
        // `compact:N` policy squeezing 8 workers onto 2 cores is
        // oversubscribed on a 64-core host.
        let park = ParkTable::new(cfg.workers);
        let cores = abyss_common::available_cores();
        park.set_early_yield(cfg.workers as usize > cfg.pin.distinct_cores(cfg.workers, cores));
        Ok(Arc::new(Self {
            ts: SharedTs::new(cfg.ts_method),
            park,
            waits: WaitsFor::new(cfg.workers),
            parts: parts.into_boxed_slice(),
            catalog,
            tables,
            indexes,
            ordered,
            gap_meta,
            meta,
            trace: cfg
                .trace
                .enabled
                .then(|| TraceSet::new(cfg.workers, cfg.trace.capacity)),
            phase_acc: cfg.breakdown.then(|| {
                (0..abyss_common::Phase::COUNT)
                    .map(|_| AtomicU64::new(0))
                    .collect()
            }),
            cfg,
            epoch,
            wal,
            log_csn: AtomicU64::new(0),
            _ticker: ticker,
            _flusher: flusher,
        }))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The active concurrency-control scheme.
    pub fn scheme(&self) -> CcScheme {
        self.cfg.scheme
    }

    /// The catalog this database was built from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The epoch subsystem (see [`crate::epoch`]). Schemes read it on
    /// their commit path; tests and tools may advance it manually.
    pub fn epoch_manager(&self) -> &EpochManager {
        &self.epoch
    }

    /// Is write-ahead logging enabled?
    pub fn logging_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// The timestamp method actually running (the engine silently
    /// degrades [`abyss_common::TsMethod::Hardware`] to `Atomic`; label
    /// runs with this, not the configured method — see
    /// [`crate::ts::SharedTs::effective_method`]).
    pub fn ts_method_effective(&self) -> abyss_common::TsMethod {
        self.ts.effective_method()
    }

    /// WAL counter snapshot, when logging is enabled.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Is transaction event tracing enabled?
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace rings, when tracing is enabled.
    pub fn trace_set(&self) -> Option<&TraceSet> {
        self.trace.as_ref()
    }

    /// Snapshot every worker's trace ring (quiescent use: workers joined
    /// or between transactions). `None` when tracing is off.
    pub fn trace_dump(&self) -> Option<TraceDump> {
        self.trace.as_ref().map(|t| t.dump())
    }

    /// Is per-phase attempt-time accounting enabled?
    pub fn breakdown_enabled(&self) -> bool {
        self.phase_acc.is_some()
    }

    /// Fold one attempt's phase delta into the live totals. No-op when
    /// breakdown is off (workers also skip the call via their disabled
    /// `PhaseClock`).
    #[inline]
    pub(crate) fn phase_accumulate(&self, delta: &abyss_common::PhaseBreakdown) {
        if let Some(acc) = &self.phase_acc {
            for p in abyss_common::Phase::ALL {
                let v = delta.get(p);
                if v != 0 {
                    acc[p.idx()].fetch_add(v, Ordering::Relaxed);
                }
            }
        }
    }

    /// Live per-phase attempt-time totals since the database was built
    /// (nanoseconds, summed over workers and attempts). `None` when
    /// breakdown is off.
    pub fn phase_totals(&self) -> Option<abyss_common::PhaseBreakdown> {
        self.phase_acc.as_ref().map(|acc| {
            let mut out = abyss_common::PhaseBreakdown::new();
            for p in abyss_common::Phase::ALL {
                out.record(p, acc[p.idx()].load(Ordering::Relaxed));
            }
            out
        })
    }

    /// Record a trace event for `worker`, timestamped now. No-op when
    /// tracing is off.
    #[inline]
    pub(crate) fn trace_event(&self, worker: u32, txn: abyss_common::TxnId, kind: TraceEventKind) {
        if let Some(t) = &self.trace {
            t.ring(worker).record(TraceEvent {
                t_ns: t.now_ns(),
                txn,
                kind,
            });
        }
    }

    /// [`Database::trace_event`] with an explicit timestamp (reconstructed
    /// wait starts). No-op when tracing is off.
    #[inline]
    pub(crate) fn trace_event_at(
        &self,
        worker: u32,
        txn: abyss_common::TxnId,
        t_ns: u64,
        kind: TraceEventKind,
    ) {
        if let Some(t) = &self.trace {
            t.ring(worker).record(TraceEvent { t_ns, txn, kind });
        }
    }

    /// A point-in-time [`MetricsSnapshot`] of the engine's gauges and
    /// counters. Reads only shared state (epoch watermarks, WAL counters,
    /// the waits-for graph, index health), so it can be scraped while a
    /// run is in flight.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let current = self.epoch.current();
        let safe = self.epoch.safe_epoch();
        let wal = self.wal_stats();
        let durable = wal.as_ref().map(|w| w.durable_epoch);
        let tables = self
            .catalog
            .tables()
            .iter()
            .map(|def| {
                let health = self.index_health(def.id);
                TableMetrics {
                    name: def.name.clone(),
                    live_keys: health.hash_len as u64,
                    row_slots: self.table_len(def.id),
                    hash_max_chain: health.hash_max_chain as u64,
                    btree_nodes: health.btree.map(|b| b.nodes),
                    btree_height: health.btree.map(|b| b.height as u64),
                }
            })
            .collect();
        MetricsSnapshot {
            scheme: self.cfg.scheme.name(),
            workers: self.cfg.workers,
            current_epoch: current,
            safe_epoch: safe,
            epoch_lag: current.saturating_sub(safe),
            durable_epoch: durable,
            durable_epoch_lag: durable.map_or(0, |d| current.saturating_sub(d)),
            wal_backlog_bytes: self.wal.as_ref().map_or(0, |w| w.backlog_bytes()),
            log_records: wal.as_ref().map_or(0, |w| w.records),
            log_bytes: wal.as_ref().map_or(0, |w| w.bytes),
            log_flushes: wal.as_ref().map_or(0, |w| w.flushes),
            log_fsyncs: wal.as_ref().map_or(0, |w| w.fsyncs),
            wal_failed: wal.as_ref().is_some_and(|w| w.failed),
            waitsfor_edges: self.waits.published_edges(),
            mempool_live_blocks: abyss_storage::mempool::live_blocks(),
            trace_events: self.trace.as_ref().map_or(0, |t| t.total_recorded()),
            trace_dropped: self.trace.as_ref().map_or(0, |t| t.total_overwritten()),
            phase_ns: self.phase_totals(),
            commit_latency: None,
            abort_latency: None,
            queue_ack_latency: None,
            sheds: [0; abyss_common::Priority::COUNT],
            backoffs: 0,
            backoff_ns: 0,
            backoff_delay_ns: 0,
            tables,
        }
    }

    /// The durable epoch: every commit whose record carries an epoch `≤`
    /// this has reached the log device (per the configured
    /// [`FsyncPolicy`]). `None` when logging is off.
    pub fn durable_epoch(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.durable_epoch())
    }

    /// Run one group-commit fence now (what the background flusher does
    /// every `log.group_interval_us`): flush every shard and advance the
    /// durable epoch to `safe_epoch − 1`. Horizon soundness: a record not
    /// yet appended belongs to a worker still registered in its entry
    /// epoch `e₀ ≤` its commit epoch, so `safe_epoch ≤ e₀` and the record
    /// is beyond the horizon.
    pub fn log_group_flush(&self) {
        if let Some(w) = &self.wal {
            w.group_flush(self.epoch.safe_epoch().saturating_sub(1));
        }
    }

    /// Clean-shutdown flush: declare everything buffered durable through
    /// the *current* epoch. Only sound when no worker is mid-transaction
    /// (the run drivers call it after joining their workers).
    pub fn log_flush_all(&self) {
        if let Some(w) = &self.wal {
            w.flush_all_quiescent(self.epoch.current());
        }
    }

    /// WAL commit point for schemes without a natural commit ordinal
    /// (2PL, H-STORE, OCC): draw a global commit-window serial, stamp the
    /// record's epoch, and **append the redo record now**. Must be called
    /// at the commit's point of no return, **inside the transaction's
    /// exclusion window** — write locks / partition ownership / validated
    /// latches still held, no fallible step remaining — so that:
    ///
    /// * for any two conflicting commits the `(epoch, seq)` order matches
    ///   the install order, and
    /// * under [`FsyncPolicy::EveryCommit`] a transaction's record is
    ///   durable *before* its locks release — a dependent successor can
    ///   never be durable without it, keeping the replayed set
    ///   dependency-closed.
    #[inline]
    pub(crate) fn wal_commit_point_csn(
        &self,
        worker: u32,
        st: &mut TxnState,
        stats: &mut abyss_common::RunStats,
    ) {
        if self.wal.is_some() {
            st.log_seq = self.log_csn.fetch_add(1, Ordering::Relaxed) + 1;
            st.log_epoch = self.epoch.current();
            self.wal_append(worker, st, stats);
        }
    }

    /// WAL commit point for schemes whose commit ordinal *is* their
    /// timestamp/TID (T/O, MVCC: the start timestamp; TICTOC: the
    /// computed commit timestamp; SILO: its commit TID + fenced epoch via
    /// [`Database::wal_commit_point_at`]). Same point-of-no-return /
    /// exclusion-window contract as [`Database::wal_commit_point_csn`].
    #[inline]
    pub(crate) fn wal_commit_point_seq(
        &self,
        worker: u32,
        st: &mut TxnState,
        stats: &mut abyss_common::RunStats,
        seq: u64,
    ) {
        if self.wal.is_some() {
            st.log_seq = seq;
            st.log_epoch = self.epoch.current();
            self.wal_append(worker, st, stats);
        }
    }

    /// [`Database::wal_commit_point_seq`] with an explicit epoch (SILO's
    /// fenced commit epoch, already embedded in its TID).
    #[inline]
    pub(crate) fn wal_commit_point_at(
        &self,
        worker: u32,
        st: &mut TxnState,
        stats: &mut abyss_common::RunStats,
        epoch: u64,
        seq: u64,
    ) {
        if self.wal.is_some() {
            st.log_seq = seq;
            st.log_epoch = epoch;
            self.wal_append(worker, st, stats);
        }
    }

    /// Append the stamped redo record to `worker`'s shard (no-op when the
    /// transaction wrote nothing). Only called from the commit points
    /// above, inside the exclusion window and before the worker exits its
    /// epoch slot — both the group-commit horizon argument and the
    /// per-commit-fsync dependency argument hang on that placement.
    fn wal_append(&self, worker: u32, st: &TxnState, stats: &mut abyss_common::RunStats) {
        let Some(wal) = &self.wal else { return };
        if st.redo.is_empty() {
            return;
        }
        debug_assert!(st.log_epoch != 0, "WAL append without a stamped epoch");
        let mut ops = Vec::with_capacity(st.redo.len());
        for r in &st.redo {
            ops.push(match &r.image {
                Some(img) => {
                    let len = self.tables[r.table as usize].row_size();
                    abyss_storage::wal::LogOp::Put {
                        table: r.table,
                        key: r.key,
                        image: &img[..len],
                    }
                }
                None => abyss_storage::wal::LogOp::Del {
                    table: r.table,
                    key: r.key,
                },
            });
        }
        let bytes = wal.append_commit(worker, st.log_epoch, st.log_seq, &ops);
        stats.log_records += 1;
        stats.log_bytes += bytes as u64;
        self.trace_event(
            worker,
            st.txn_id,
            TraceEventKind::WalSerialPoint {
                epoch: st.log_epoch,
                seq: st.log_seq,
            },
        );
    }

    /// Schema of `table`.
    pub fn schema(&self, table: TableId) -> &Schema {
        self.tables[table as usize].schema()
    }

    /// Number of row *slots* allocated in `table`. Aborted eager inserts
    /// (2PL, H-STORE) leave unreachable slots behind, so this can exceed
    /// [`Database::index_len`]; use the latter to count live rows.
    pub fn table_len(&self, table: TableId) -> u64 {
        self.tables[table as usize].len()
    }

    /// Number of live (indexed) rows in `table`. Walks the index buckets —
    /// diagnostics and post-run checks, not for hot paths.
    pub fn index_len(&self, table: TableId) -> u64 {
        self.indexes[table as usize].len() as u64
    }

    /// Per-tuple metadata of a row. [`crate::txn::GAP_ROW`] addresses the
    /// table's "+∞" gap anchor instead of a real slot.
    #[inline]
    pub(crate) fn row_meta(&self, table: TableId, row: RowIdx) -> &RowMeta {
        if row == crate::txn::GAP_ROW {
            &self.gap_meta[table as usize]
        } else {
            &self.meta[table as usize][row as usize]
        }
    }

    /// Index probe.
    #[inline]
    pub(crate) fn index_get(&self, table: TableId, key: Key) -> Result<RowIdx, DbError> {
        self.indexes[table as usize].get(key)
    }

    /// The ordered index of `table`, if the catalog declared one.
    #[inline]
    pub(crate) fn ordered_index(&self, table: TableId) -> Option<&BPlusTree> {
        self.ordered[table as usize].as_ref()
    }

    /// The ordered index of `table`, or the error scan callers surface.
    #[inline]
    pub(crate) fn require_ordered(&self, table: TableId) -> Result<&BPlusTree, DbError> {
        self.ordered_index(table).ok_or(DbError::Unsupported(
            "range scan on a table without an ordered index",
        ))
    }

    /// Publish `key → row` in every index of `table` (hash, plus the
    /// ordered index when present). Returns the B+-tree leaf the key
    /// landed in so timestamp schemes can run their gap checks against it.
    /// Atomic across indexes: a duplicate rolls the hash insert back.
    pub(crate) fn index_insert(
        &self,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<Option<LeafId>, DbError> {
        self.indexes[table as usize].insert(key, row)?;
        if let Some(tree) = self.ordered_index(table) {
            match tree.insert(key, row) {
                Ok(leaf) => Ok(Some(leaf)),
                Err(e) => {
                    // Hash uniqueness makes this unreachable in practice,
                    // but keep the pair consistent regardless.
                    self.indexes[table as usize].remove(key);
                    Err(e)
                }
            }
        } else {
            Ok(None)
        }
    }

    /// Withdraw `key` from every index of `table`. Returns the row it
    /// mapped to and the B+-tree leaf it was removed from (when ordered).
    pub(crate) fn index_remove(
        &self,
        table: TableId,
        key: Key,
    ) -> Option<(RowIdx, Option<LeafId>)> {
        let row = self.indexes[table as usize].remove(key)?;
        let leaf = self
            .ordered_index(table)
            .and_then(|tree| tree.remove(key).map(|(_, leaf)| leaf));
        Some((row, leaf))
    }

    /// [`Database::index_remove`] for the timestamp schemes: the covering
    /// leaf's `del_wts` tag is raised to `ts` atomically with the removal
    /// (under the leaf lock), so a scan that misses the key is guaranteed
    /// to also see the tag.
    pub(crate) fn index_remove_tagged(
        &self,
        table: TableId,
        key: Key,
        ts: abyss_common::Ts,
    ) -> Option<(RowIdx, Option<LeafId>)> {
        let row = self.indexes[table as usize].remove(key)?;
        let leaf = self
            .ordered_index(table)
            .and_then(|tree| tree.remove_tagged(key, ts).map(|(_, leaf)| leaf));
        Some((row, leaf))
    }

    /// [`Database::index_insert`] for the timestamp schemes: refuses the
    /// insert (rolling the hash entry back) when the covering leaf's
    /// `scan_rts` tag exceeds `ts`. The check is atomic with publication
    /// (under the leaf lock), so a committed scan that missed this key
    /// either raised the tag first — and we refuse — or observes the key
    /// through its leaf revalidation.
    pub(crate) fn index_insert_guarded(
        &self,
        table: TableId,
        key: Key,
        row: RowIdx,
        ts: abyss_common::Ts,
    ) -> Result<OrderedPublish, DbError> {
        self.indexes[table as usize].insert(key, row)?;
        let Some(tree) = self.ordered_index(table) else {
            return Ok(OrderedPublish::Done(None));
        };
        match tree.insert_guarded(key, row, ts) {
            Ok(GuardedInsert::Inserted { leaf, .. }) => Ok(OrderedPublish::Done(Some(leaf))),
            Ok(GuardedInsert::GapProtected) => {
                self.indexes[table as usize].remove(key);
                Ok(OrderedPublish::GapProtected)
            }
            Err(e) => {
                self.indexes[table as usize].remove(key);
                Err(e)
            }
        }
    }

    /// [`Database::index_insert`] additionally reporting the B+-tree
    /// leaf's pre-insert version (OCC/SILO own-node-set accounting).
    pub(crate) fn index_insert_tracked(
        &self,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<Option<(LeafId, u64)>, DbError> {
        self.indexes[table as usize].insert(key, row)?;
        let Some(tree) = self.ordered_index(table) else {
            return Ok(None);
        };
        match tree.insert_tracked(key, row) {
            Ok(info) => Ok(Some(info)),
            Err(e) => {
                self.indexes[table as usize].remove(key);
                Err(e)
            }
        }
    }

    /// Bulk-load rows into `table`. Not transactional; run before workers
    /// start. `init` fills each freshly allocated row.
    pub fn load_table(
        &self,
        table: TableId,
        keys: impl IntoIterator<Item = Key>,
        mut init: impl FnMut(&Schema, &mut [u8], Key),
    ) -> Result<u64, DbError> {
        let t = &self.tables[table as usize];
        let mut n = 0;
        for key in keys {
            let row = t.allocate_row()?;
            // SAFETY: the row was just allocated and is not yet indexed, so
            // no other thread can reach it.
            let data = unsafe { t.row_mut(row) };
            init(t.schema(), data, key);
            self.index_insert(table, key, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Diagnostics: `(version, scan_rts, del_wts)` of the B+-tree leaf
    /// covering `key`'s position, when the table is ordered.
    #[doc(hidden)]
    pub fn debug_leaf_tags(&self, table: TableId, key: Key) -> Option<(u64, u64, u64)> {
        let tree = self.ordered_index(table)?;
        let sr = tree.scan(key, key);
        let &(leaf, v) = sr.leaves.first()?;
        Some((v, tree.leaf_scan_rts(leaf), tree.leaf_del_wts(leaf)))
    }

    /// Diagnostics: how many of `table`'s tuples have allocated their
    /// lazily created slow-path state ([`crate::meta::Aux`]).
    #[doc(hidden)]
    pub fn debug_aux_allocated(&self, table: TableId) -> u64 {
        let rows = self.table_len(table) as usize;
        self.meta[table as usize][..rows]
            .iter()
            .filter(|m| m.has_aux())
            .count() as u64
    }

    /// Index-health snapshot for `table` — the regression surface the
    /// bench binaries export (hash chain length, B+-tree shape).
    pub fn index_health(&self, table: TableId) -> IndexHealth {
        IndexHealth {
            hash_len: self.indexes[table as usize].len(),
            hash_max_chain: self.indexes[table as usize].max_chain(),
            btree: self.ordered_index(table).map(|t| t.health()),
        }
    }

    /// Crash recovery: replay the write-ahead log onto this database's
    /// freshly **loaded** state (the load is the checkpoint; only
    /// transactional writes are logged). Call before any worker starts —
    /// replay is quiescent, like [`Database::load_table`].
    ///
    /// * The replay bound is the persisted durable epoch for group-commit
    ///   policies, or "every intact record" under
    ///   [`FsyncPolicy::EveryCommit`] (each commit was acknowledged
    ///   durable at its own fsync).
    /// * Records from every shard are merged and applied in
    ///   `(epoch, seq)` order — last-writer-wins by commit TID /
    ///   commit-ts — covering inserts, updates and deletes (ordered
    ///   tables included: index publication goes through the same
    ///   hash+B+-tree paths as the engine).
    /// * Replay is idempotent: puts overwrite, deletes ignore absent
    ///   keys, so recovering twice converges to the same state.
    /// * The non-durable (or torn) tail of each shard is truncated, and
    ///   the epoch manager is advanced past every replayed epoch, so the
    ///   recovered engine appends strictly after what it replayed.
    pub fn recover_from_log(&self) -> Result<RecoveryReport, DbError> {
        let wal = self.wal.as_ref().ok_or(DbError::Unsupported(
            "recover_from_log requires logging to be enabled",
        ))?;
        let io = |e: std::io::Error| DbError::Io(format!("WAL recovery: {e}"));
        let scans = wal::scan_dir(wal.dir()).map_err(io)?;
        let bound = match wal.policy() {
            FsyncPolicy::EveryCommit => u64::MAX,
            _ => wal::read_meta(wal.dir()).unwrap_or(0),
        };
        // Truncate each shard's non-durable / torn tail so it can never
        // resurrect in a later recovery or interleave with new appends.
        let mut report = RecoveryReport::default();
        let mut ordered: Vec<&wal::Record> = Vec::new();
        for scan in &scans {
            let keep_len = scan
                .records
                .iter()
                .take_while(|r| r.epoch <= bound)
                .last()
                .map(|r| r.end_offset)
                .unwrap_or(scan.valid_len.min(wal::HEADER_BYTES));
            let file_len = std::fs::metadata(&scan.path).map_err(io)?.len();
            if keep_len < file_len {
                wal::truncate_shard(&scan.path, keep_len).map_err(io)?;
                report.truncated_shards += 1;
            }
            for r in scan.records.iter().take_while(|r| r.epoch <= bound) {
                ordered.push(r);
            }
        }
        // Merge shards into replay order. The sort is stable, but two
        // records never carry the same (epoch, seq) *and* conflict: equal
        // seqs only occur between non-conflicting transactions.
        ordered.sort_by_key(|r| (r.epoch, r.seq));
        for rec in ordered {
            report.records_applied += 1;
            report.max_epoch = report.max_epoch.max(rec.epoch);
            for op in &rec.ops {
                report.ops_applied += 1;
                match op {
                    RecOp::Put { table, key, image } => self.replay_put(*table, *key, image)?,
                    RecOp::Del { table, key } => {
                        self.index_remove(*table, *key);
                    }
                }
            }
        }
        report.durable_epoch = bound.min(report.max_epoch.max(wal.durable_epoch()));
        // New commits must serialize (and log) strictly after everything
        // replayed: push the epoch past the newest replayed record.
        while self.epoch.current() <= report.max_epoch {
            self.epoch.advance();
        }
        Ok(report)
    }

    /// Apply one recovered after-image: overwrite the row in place when
    /// the key exists, otherwise allocate + publish a fresh row.
    fn replay_put(&self, table: TableId, key: Key, image: &[u8]) -> Result<(), DbError> {
        let t = &self.tables[table as usize];
        let n = t.row_size().min(image.len());
        if let Some(row) = self.indexes[table as usize].find(key) {
            // SAFETY: recovery is quiescent (documented contract).
            let data = unsafe { t.row_mut(row) };
            data[..n].copy_from_slice(&image[..n]);
            return Ok(());
        }
        let row = t.allocate_row()?;
        // SAFETY: fresh unindexed row.
        let data = unsafe { t.row_mut(row) };
        data[..n].copy_from_slice(&image[..n]);
        self.index_insert(table, key, row)?;
        Ok(())
    }

    /// Order-independent digest of the committed state: every live key's
    /// row bytes (via [`Database::peek`]), folded per table. Quiescent use
    /// only — the recovery tests compare a recovered database against a
    /// reference run with this.
    pub fn state_digest(&self) -> u64 {
        let mut digest = 0u64;
        for (tid, index) in self.indexes.iter().enumerate() {
            let mut keys = Vec::with_capacity(index.len());
            index.for_each(|k, _| keys.push(k));
            keys.sort_unstable();
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for k in keys {
                let bytes = self.peek(tid as TableId, k).expect("indexed key peeks");
                h = fxhash::hash_u64(h ^ fxhash::hash_u64(k) ^ fxhash::hash_bytes(&bytes));
            }
            digest ^= fxhash::hash_u64(h ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        digest
    }

    /// Create the execution context for `worker` (one per thread). The
    /// context dispatches on the configured scheme at runtime
    /// ([`crate::schemes::AnyScheme`]); use [`Database::worker_as`] to
    /// monomorphize a single scheme instead.
    pub fn worker(self: &Arc<Self>, worker: u32) -> WorkerCtx {
        self.worker_as::<crate::schemes::AnyScheme>(worker)
    }

    /// [`Database::worker`] monomorphized over one protocol — the
    /// single-scheme escape hatch (no per-access dispatch, and a binary
    /// that only names one scheme type instantiates only that one).
    /// Panics if `P` names a different scheme than the configuration.
    pub fn worker_as<P: crate::schemes::CcProtocol>(self: &Arc<Self>, worker: u32) -> WorkerCtx<P> {
        assert!(worker < self.cfg.workers, "worker id {worker} out of range");
        WorkerCtx::new(Arc::clone(self), worker)
    }

    /// Direct unprotected read of a row by key — for tests and post-run
    /// verification only (no concurrency control!).
    pub fn peek(&self, table: TableId, key: Key) -> Result<Vec<u8>, DbError> {
        let row = self.index_get(table, key)?;
        // Every scheme keeps the newest committed image in the arena row.
        // SAFETY: quiescent access (documented contract of peek).
        Ok(unsafe { self.tables[table as usize].row(row).to_vec() })
    }

    /// Sum a `u64` column over all rows of `table` — post-run invariant
    /// checks (no concurrency control; call when workers are stopped).
    pub fn sum_column(&self, table: TableId, col: usize) -> u64 {
        let t = &self.tables[table as usize];
        let mut sum = 0u64;
        for row in 0..t.len() {
            // SAFETY: quiescent access (documented contract).
            let data = unsafe { t.row(row) };
            sum = sum.wrapping_add(abyss_storage::row::get_u64(t.schema(), data, col));
        }
        sum
    }
}

/// What [`Database::recover_from_log`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch recovery replayed through (the durability guarantee).
    pub durable_epoch: u64,
    /// Commit records applied.
    pub records_applied: u64,
    /// Individual put/delete operations applied.
    pub ops_applied: u64,
    /// Shards whose non-durable or torn tail was truncated.
    pub truncated_shards: u64,
    /// Newest epoch seen among applied records.
    pub max_epoch: u64,
}

/// Background group-commit thread: runs one
/// [`Database::log_group_flush`]-equivalent fence per interval. Stops
/// (and joins) on drop.
#[derive(Debug)]
struct WalFlusher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl WalFlusher {
    fn start(wal: Arc<WalSet>, epoch: Arc<EpochManager>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("abyss-wal-flusher".into())
            .spawn(move || {
                // Short sleep slices so dropping the database never waits
                // a full group interval (same pattern as the epoch ticker).
                let slice = interval
                    .min(Duration::from_millis(5))
                    .max(Duration::from_micros(50));
                let mut slept = Duration::ZERO;
                while !stop2.load(Ordering::Acquire) {
                    std::thread::sleep(slice);
                    slept += slice;
                    if slept >= interval {
                        wal.group_flush(epoch.safe_epoch().saturating_sub(1));
                        slept = Duration::ZERO;
                    }
                }
            })
            .expect("spawn WAL flusher");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for WalFlusher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Outcome of [`Database::index_insert_guarded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderedPublish {
    /// Published in every index (the leaf, when the table is ordered).
    Done(Option<LeafId>),
    /// Refused: a later-timestamp scan already covered the target gap.
    GapProtected,
}

/// Index-health snapshot of one table (see [`Database::index_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHealth {
    /// Live keys in the hash index.
    pub hash_len: usize,
    /// Longest hash bucket chain (load-factor regression signal).
    pub hash_max_chain: usize,
    /// B+-tree shape, when the table carries an ordered index.
    pub btree: Option<BtreeHealth>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("scheme", &self.cfg.scheme)
            .field("workers", &self.cfg.workers)
            .field("tables", &self.tables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abyss_storage::row;

    fn tiny_db(scheme: CcScheme) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(1, 8), 100);
        let db = Database::new(EngineConfig::new(scheme, 2), cat).unwrap();
        db.load_table(0, 0..50, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, k * 10);
        })
        .unwrap();
        db
    }

    #[test]
    fn load_and_peek() {
        let db = tiny_db(CcScheme::NoWait);
        assert_eq!(db.table_len(0), 50);
        let r = db.peek(0, 7).unwrap();
        assert_eq!(row::get_u64(db.schema(0), &r, 0), 7);
        assert_eq!(row::get_u64(db.schema(0), &r, 1), 70);
        assert!(db.peek(0, 99).is_err());
    }

    #[test]
    fn sum_column_over_load() {
        let db = tiny_db(CcScheme::NoWait);
        // sum of k*10 for k in 0..50
        assert_eq!(db.sum_column(0, 1), (0..50u64).map(|k| k * 10).sum());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(1, 8), 10);
        let mut cfg = EngineConfig::new(CcScheme::NoWait, 1);
        cfg.workers = 0;
        assert!(Database::new(cfg, cat).is_err());
    }

    #[test]
    fn worker_id_bounds_checked() {
        let db = tiny_db(CcScheme::NoWait);
        let _ok = db.worker(1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.worker(5)));
        assert!(res.is_err());
    }
}
