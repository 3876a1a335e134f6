//! MVCC — multi-version timestamp ordering (§2.2).
//!
//! The **newest committed version lives in place in the table arena**,
//! described by the tuple's header word (`wts`, a latch bit, a
//! pending-prewrite flag — [`crate::lockword::to`]) and the `rts` beside
//! it. A committed write moves the superseded image, tagged with its
//! `wts`, into the tuple's bounded history ([`crate::meta::ToLatch::supersede`])
//! and the new image into the arena: while the history is growing the
//! workspace block swaps contents with the arena row and becomes the
//! entry; once it is full the evicted slot is refilled in place, so a hot
//! tuple's commit is two block copies and no allocator or pool traffic.
//!
//! Reads find the newest version with `wts ≤ ts` — they are never
//! rejected for arriving "late" (the paper's headline benefit:
//! non-blocking reads under read-mostly mixes, Fig. 13) — but must wait
//! when an *uncommitted* write with a timestamp between that version and
//! the reader is pending. The common read (`wts ≤ ts`, nothing pending)
//! touches only the header, `rts` and the arena row; only a reader whose
//! snapshot predates the newest version walks the history, and it never
//! waits there (every prewrite is above the newest `wts`).
//! Writes follow MVTO: if the newest version has already been read by a
//! later transaction (`rts > ts`) or a newer committed version exists, the
//! writer aborts.
//!
//! A tuple keeps `mvcc_max_versions` versions (the arena row plus
//! `mvcc_max_versions − 1` superseded ones); a reader whose timestamp
//! predates the oldest retained version aborts (practically unobserved —
//! it would need to lag by `max_versions` commits).

use abyss_common::{AbortReason, CcScheme, Key, RowIdx, TableId, Ts};
use abyss_storage::Schema;

use super::timestamp::park_behind_prewrite;
use super::{timestamp, CcProtocol, ReadRef, SchemeEnv};
use crate::meta::ToLatch;
use crate::worker::{TxnError, WorkerCtx};

/// Multi-version timestamp ordering (newest version in place, older
/// versions in a bounded per-tuple history).
pub struct Mvcc;

impl CcProtocol for Mvcc {
    super::scheme_caps!(CcScheme::Mvcc);

    #[inline]
    fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
        read(env, table, row)
    }

    #[inline]
    fn write(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        timestamp::write(env, table, row, f, admit_write)
    }

    #[inline]
    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        timestamp::insert(env, table, key, f)
    }

    #[inline]
    fn delete(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<(), AbortReason> {
        timestamp::delete(env, table, key, row, admit_write)
    }

    /// Snapshot-bounded scan read: rows created after this snapshot are
    /// *skipped*, not aborted on.
    #[inline]
    fn read_for_scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
    ) -> Result<Option<ReadRef>, AbortReason> {
        read_visible(env, table, row)
    }

    #[inline]
    fn scan(
        ctx: &mut WorkerCtx<Self>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        ctx.scan_to(table, low, high, f)
    }

    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        commit(env)
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        timestamp::abort(env);
    }
}

/// MVCC read (see module docs).
fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
    match read_visible(env, table, row)? {
        Some(r) => Ok(r),
        // Required version was garbage-collected (or the row was created
        // after this snapshot — indistinguishable at a point access).
        None => Err(AbortReason::TsOrderViolation),
    }
}

/// MVCC read returning `None` when the tuple has no version visible at
/// this snapshot. The scan path uses this to *skip* rows created by
/// transactions serialized after the scanner (their `wts > ts`) instead
/// of aborting — the snapshot-bounded scan semantics.
pub(super) fn read_visible(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<Option<ReadRef>, AbortReason> {
    if let Some(r) = env.read_own_write(table, row) {
        return Ok(Some(r));
    }
    let ts = env.st.ts;
    let t = &env.db.tables[table as usize];
    let len = t.row_size();
    loop {
        let latch = env.db.row_meta(table, row).to_latch();
        let wts = latch.wts();
        if ts < wts {
            // Snapshot predates the arena row: serve a superseded version.
            // No wait is possible here — every prewrite is above `wts`.
            if !latch.has_history() {
                return Ok(None);
            }
            let s = latch.state();
            let Some(v) = s.visible_old(ts) else {
                return Ok(None);
            };
            // Uninit is safe: the row prefix is overwritten here and
            // readers only ever see `buf[..row_size]`.
            let mut buf = env.pool.alloc_uninit(len);
            buf[..len].copy_from_slice(&v.data[..len]);
            drop(s);
            drop(latch);
            return Ok(Some(env.push_read_copy(table, row, buf)));
        }
        if latch.is_pending() && latch.state().pending_between(wts, ts, env.st.txn_id) {
            park_behind_prewrite(env, latch, table, row)?;
            continue;
        }
        latch.bump_rts(ts);
        let mut buf = env.pool.alloc_uninit(len);
        // SAFETY: the arena row is only written under this tuple's latch
        // (see commit), which we hold.
        unsafe { t.copy_row_into(row, &mut buf) };
        drop(latch);
        return Ok(Some(env.push_read_copy(table, row, buf)));
    }
}

/// Admit a write-class access (RMW or delete) under the MVTO rules: the
/// newest version must be the one visible at `ts` and unread by any later
/// transaction (the `rts` check is also what stops a delete from
/// serializing before a scan that already observed the row), with no
/// interfering prewrite. Returns with the tuple latched, `rts` advanced
/// (the access reads the newest version) and the prewrite registered.
fn admit_write<'a>(
    env: &mut SchemeEnv<'a>,
    table: TableId,
    row: RowIdx,
) -> Result<ToLatch<'a>, AbortReason> {
    let ts = env.st.ts;
    let me = env.st.txn_id;
    loop {
        let mut latch = env.db.row_meta(table, row).to_latch();
        let wts = latch.wts();
        if ts < wts {
            // A committed version newer than ts exists. If ts can still
            // see a superseded one this is a write conflict; otherwise
            // the snapshot is gone altogether.
            let visible = latch.has_history() && latch.state().visible_old(ts).is_some();
            return Err(if visible {
                AbortReason::MvccWriteConflict
            } else {
                AbortReason::TsOrderViolation
            });
        }
        if latch.rts() > ts {
            // A later reader already saw the version we would replace.
            return Err(AbortReason::MvccWriteConflict);
        }
        if latch.is_pending() {
            let s = latch.state();
            if s.pending_between(wts, ts, me) {
                drop(s);
                park_behind_prewrite(env, latch, table, row)?;
                continue;
            }
            // A pending prewrite *above* ts means a younger RMW writer
            // based itself on the same version; its rts bump hasn't
            // happened (it reads at its own ts > ours), but committing
            // under it would hand it a stale base. MVTO resolution: abort
            // the older writer.
            if s.pending_between(ts, Ts::MAX, me) {
                return Err(AbortReason::MvccWriteConflict);
            }
        }
        latch.bump_rts(ts);
        latch.add_prewrite(ts, me);
        env.st.prewrites.push((table, row));
        return Ok(latch);
    }
}

/// Commit: turn prewrites into committed versions; publish inserts.
///
/// Inserts run first — they are the only fallible step (duplicate-key
/// races) — and withdraw themselves on failure, so a failed commit leaves
/// the transaction in its uncommitted state for the abort path.
fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
    let ts = env.st.ts;
    let me = env.st.txn_id;
    // The arena row is one of the `mvcc_max_versions` (validated >= 2).
    let max_old = env.db.cfg.mvcc_max_versions - 1;

    timestamp::apply_inserts(env, AbortReason::MvccWriteConflict)?;

    // WAL commit point: inserts (the only fallible step) are published,
    // every prewrite is still pending — serialization is by `ts`.
    env.wal_commit_point_seq(ts);

    for w in std::mem::take(&mut env.st.wbuf) {
        if env
            .st
            .deletes
            .iter()
            .any(|d| d.table == w.table && d.row == w.row)
        {
            // Written then deleted in the same transaction: the delete wins.
            env.pool.free(w.data);
            continue;
        }
        let t = &env.db.tables[w.table as usize];
        let mut latch = env.db.row_meta(w.table, w.row).to_latch();
        // SAFETY: the arena row is only touched under the tuple latch.
        let newest = unsafe { t.row_mut(w.row) };
        let len = newest.len();
        let pool = &mut *env.pool;
        latch.supersede(ts, max_old, |evicted| match evicted {
            // History full: refill the evicted slot in place, so a hot
            // tuple's commits leave the pool alone.
            Some(mut slot) => {
                slot[..len].copy_from_slice(newest);
                newest.copy_from_slice(&w.data[..len]);
                pool.free(w.data);
                slot
            }
            // Still growing: the workspace block takes the superseded
            // image in exchange for the new one and becomes the entry.
            None => {
                let mut block = w.data;
                newest.swap_with_slice(&mut block[..len]);
                block
            }
        });
        latch.resolve_prewrites(me, |w| env.db.park.grant(w));
    }
    // Deletes: pull the key out of the indexes FIRST — while the prewrite
    // is still pending, so any reader that finds the stale row reference
    // keeps waiting instead of slipping through a "resolved but not yet
    // removed" window — then resolve the prewrite and wake waiters.
    // Scanners holding a stale B+-tree snapshot catch the removal through
    // leaf revalidation; later-arriving scanners with an *older* snapshot
    // abort on `del_wts` (raised atomically with the removal, under the
    // leaf lock).
    for d in std::mem::take(&mut env.st.deletes) {
        env.db.index_remove_tagged(d.table, d.key, ts);
        let mut latch = env.db.row_meta(d.table, d.row).to_latch();
        latch.resolve_prewrites(me, |w| env.db.park.grant(w));
    }
    env.st.prewrites.clear();
    Ok(())
}
