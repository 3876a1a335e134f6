//! TIMESTAMP — basic timestamp ordering with a decentralized (per-tuple)
//! scheduler, as in §2.2/§4.3 of the paper.
//!
//! Per-tuple state: the largest committed write timestamp `wts` and a
//! latch bit in the tuple's header word ([`crate::lockword::to`]), the
//! largest read timestamp `rts` beside it, and — only once a write has
//! touched the tuple — the set of uncommitted *prewrites* and the readers
//! parked behind them ([`crate::meta::ToState`]). A conflict-free access
//! is one latch CAS, the header checks, the row copy and the unlatching
//! store. The rules:
//!
//! * `read(ts)` rejects if `ts < wts`; waits while a prewrite with a
//!   smaller timestamp is pending (its value is "not ready yet", §3.2
//!   WAIT); otherwise copies the tuple into the transaction's local buffer
//!   (reads are not protected by locks, so repeatable reads require the
//!   copy — the paper calls out exactly this copy as TIMESTAMP's overhead)
//!   and advances `rts`.
//! * `write(ts)` rejects if `ts < rts` or `ts < wts`; our writes are all
//!   read-modify-writes, so the write also waits on smaller pending
//!   prewrites, advances `rts`, registers its prewrite, and buffers the new
//!   image privately until commit.
//!
//! Every wait is by a higher timestamp on a lower one, so waits are
//! acyclic; the engine's global wait cap is only a safety valve.
//!
//! Aborted transactions restart with a *fresh* timestamp (§2.2).

use std::time::{Duration, Instant};

use abyss_common::{AbortReason, CcScheme, Key, RowIdx, TableId};
use abyss_storage::Schema;

use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::lockword::to;
use crate::meta::ToLatch;
use crate::txn::{DeleteEntry, InsertEntry, WriteEntry};
use crate::worker::TxnError;

/// Basic timestamp ordering with per-tuple read/write timestamps.
pub struct Timestamp;

impl CcProtocol for Timestamp {
    const SCHEME: CcScheme = CcScheme::Timestamp;

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
        write(env, table, row, f, admit_write)
    }

    #[inline]
    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        insert(env, table, key, f)
    }

    #[inline]
    fn delete(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<(), AbortReason> {
        delete(env, table, key, row, admit_write)
    }

    #[inline]
    fn scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        scan(env, table, low, high, f, |env, table, row| {
            read(env, table, row).map(Some)
        })
    }

    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        commit(env)
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        abort(env);
    }
}

/// T/O range scan (shared with MVCC): tag every visited B+-tree leaf with
/// the transaction's timestamp (`scan_rts`) *before* reading rows, so
/// structural writers with smaller timestamps abort at commit; read each
/// row through `read_row` (`None` = invisible at this snapshot, skip —
/// MVCC's snapshot-bounded scan); then revalidate the leaf versions and
/// restart if anything changed structurally since the leaf snapshot.
pub(super) fn scan<R>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    low: Key,
    high: Key,
    f: &mut dyn FnMut(Key, &Schema, &[u8]),
    read_row: R,
) -> Result<usize, TxnError>
where
    R: Fn(&mut SchemeEnv<'_>, TableId, RowIdx) -> Result<Option<ReadRef>, AbortReason>,
{
    let db = env.db;
    let tree = db.require_ordered(table)?;
    let ts = env.st.ts;
    let mut attempts = 0u32;
    // Read copies taken by an attempt that fails leaf revalidation are
    // dead; recycle them instead of letting them pile up in rbuf until
    // transaction end (64 retries × scan length would otherwise pin that
    // many pool blocks on the hot scan path).
    let rbuf_base = env.st.rbuf.len();
    loop {
        attempts += 1;
        if attempts > 64 {
            return Err(TxnError::Abort(AbortReason::ValidationFail));
        }
        for rc in env.st.rbuf.drain(rbuf_base..) {
            env.pool.free(rc.data);
        }
        let sr = tree.scan(low, high);
        env.stats.scan_retries += sr.retries;
        for &(leaf, _) in &sr.leaves {
            // Publish "a transaction at `ts` read this key range" *before*
            // reading rows: structural writers with smaller timestamps
            // will abort against it.
            tree.leaf_bump_scan_rts(leaf, ts);
            if tree.leaf_del_wts(leaf) > ts {
                // A delete serialized after us already removed a key from
                // this range; this snapshot cannot be reconstructed.
                return Err(TxnError::Abort(AbortReason::TsOrderViolation));
            }
        }
        let mut got: Vec<(Key, usize)> = Vec::with_capacity(sr.entries.len());
        for &(k, row) in &sr.entries {
            match read_row(env, table, row)? {
                Some(ReadRef::Rbuf(i)) => got.push((k, i)),
                Some(ReadRef::InPlace { .. }) => unreachable!("T/O reads always copy"),
                None => {} // created after this snapshot: skip
            }
        }
        // Revalidate after the reads: any structural change since the leaf
        // snapshot (insert by a later ts, delete, split) restarts the scan
        // so the entry list and the row reads agree.
        if sr.leaves.iter().any(|&(l, v)| tree.leaf_version(l) != v) {
            env.stats.scan_retries += 1;
            continue;
        }
        let t = &db.tables[table as usize];
        let len = t.row_size();
        for &(k, i) in &got {
            f(k, t.schema(), &env.st.rbuf[i].data[..len]);
        }
        return Ok(got.len());
    }
}

/// Park behind the pending prewrite found under `latch`, releasing the
/// latch. `Ok` means "woken — re-latch and re-check"; the clock is read
/// only here, once the caller is certain to park. Shared with MVCC.
pub(super) fn park_behind_prewrite(
    env: &mut SchemeEnv<'_>,
    latch: ToLatch<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<(), AbortReason> {
    // Arm before publishing the waiter so a grant cannot race ahead.
    env.db.park.arm(env.worker);
    latch.add_waiter(env.worker);
    drop(latch);
    let started = Instant::now();
    let deadline = started + Duration::from_micros(env.db.cfg.wait_cap_us);
    let out = env.db.park.wait(env.worker, deadline);
    env.record_wait(started);
    if out == crate::park::WaitOutcome::TimedOut {
        env.db
            .row_meta(table, row)
            .to_latch()
            .remove_waiter(env.worker);
        env.db.park.reset(env.worker);
        return Err(AbortReason::WaitTimeout);
    }
    Ok(())
}

/// Abort: withdraw prewrites and wake anyone waiting on them (shared with
/// MVCC).
pub(super) fn abort(env: &mut SchemeEnv<'_>) {
    let me = env.st.txn_id;
    for (table, row) in std::mem::take(&mut env.st.prewrites) {
        let mut latch = env.db.row_meta(table, row).to_latch();
        latch.resolve_prewrites(me, |w| env.db.park.grant(w));
    }
}

/// T/O read (see module docs).
fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
    if let Some(r) = env.read_own_write(table, row) {
        return Ok(r);
    }
    let ts = env.st.ts;
    let t = &env.db.tables[table as usize];
    loop {
        let latch = env.db.row_meta(table, row).to_latch();
        if ts < latch.wts() {
            return Err(AbortReason::TsOrderViolation);
        }
        if latch.is_pending() && latch.state().pending_between(0, ts, env.st.txn_id) {
            park_behind_prewrite(env, latch, table, row)?;
            continue;
        }
        latch.bump_rts(ts);
        // Uninit is safe: `copy_row_into` overwrites the full row and
        // readers only ever see `buf[..row_size]`.
        let mut buf = env.pool.alloc_uninit(t.row_size());
        // SAFETY: T/O writers install data only while holding this tuple's
        // latch (see commit), which we hold.
        unsafe { t.copy_row_into(row, &mut buf) };
        drop(latch);
        return Ok(env.push_read_copy(table, row, buf));
    }
}

/// Admit a write-class access (RMW or delete) at the transaction's
/// timestamp: `ts >= wts`, `ts >= rts` (the `rts` check is what stops a
/// delete from serializing *before* a scan that already observed the
/// row), no smaller prewrite pending. Returns with the tuple latched,
/// `rts` advanced (the access reads the tuple) and the prewrite registered.
fn admit_write<'a>(
    env: &mut SchemeEnv<'a>,
    table: TableId,
    row: RowIdx,
) -> Result<ToLatch<'a>, AbortReason> {
    let ts = env.st.ts;
    let me = env.st.txn_id;
    loop {
        let mut latch = env.db.row_meta(table, row).to_latch();
        if ts < latch.wts() || ts < latch.rts() {
            return Err(AbortReason::TsOrderViolation);
        }
        if latch.is_pending() && latch.state().pending_between(0, ts, me) {
            park_behind_prewrite(env, latch, table, row)?;
            continue;
        }
        latch.bump_rts(ts);
        latch.add_prewrite(ts, me);
        env.st.prewrites.push((table, row));
        return Ok(latch);
    }
}

/// T/O read-modify-write (see module docs). `admit` is the scheme's
/// write-admission rule — the only part MVCC does differently.
pub(super) fn write<A>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
    f: impl FnOnce(&Schema, &mut [u8]),
    admit: A,
) -> Result<(), AbortReason>
where
    A: for<'a> FnOnce(&mut SchemeEnv<'a>, TableId, RowIdx) -> Result<ToLatch<'a>, AbortReason>,
{
    // Second write to the same tuple mutates the buffered image.
    if let Some(i) = env.st.wbuf_idx(table, row) {
        let schema = env.db.tables[table as usize].schema();
        f(schema, env.st.wbuf[i].data.as_mut_slice());
        return Ok(());
    }
    let t = &env.db.tables[table as usize];
    let latch = admit(env, table, row)?;
    // The RMW reads the newest image.
    let mut buf = env.pool.alloc_uninit(t.row_size());
    // SAFETY: latch held (see read).
    unsafe { t.copy_row_into(row, &mut buf) };
    drop(latch);
    f(t.schema(), &mut buf[..t.row_size()]);
    env.st.wbuf.push(WriteEntry {
        table,
        row,
        data: buf,
    });
    Ok(())
}

/// T/O delete: admitted under the write rules (`admit`, as for
/// [`write`]), then left as a pending prewrite. The index entries are
/// withdrawn at commit.
pub(super) fn delete<A>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    row: RowIdx,
    admit: A,
) -> Result<(), AbortReason>
where
    A: for<'a> FnOnce(&mut SchemeEnv<'a>, TableId, RowIdx) -> Result<ToLatch<'a>, AbortReason>,
{
    drop(admit(env, table, row)?);
    env.st.deletes.push(DeleteEntry {
        table,
        key,
        row,
        applied: false,
    });
    Ok(())
}

/// T/O insert: buffered; becomes visible at commit (shared with MVCC).
pub(super) fn insert(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    let t = &env.db.tables[table as usize];
    let mut buf = env.pool.alloc(t.row_size());
    f(t.schema(), &mut buf[..t.row_size()]);
    env.st.inserts.push(InsertEntry {
        table,
        key,
        row: None,
        data: Some(buf),
        indexed: false,
    });
    Ok(())
}

/// Install buffered writes and inserts; resolve prewrites; wake waiters.
///
/// Inserts are applied *first*: they are the only fallible step, and the
/// contract with [`crate::worker::WorkerCtx::commit`] is that a failed
/// commit leaves the transaction in its uncommitted state so the normal
/// abort path can finish the rollback.
fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
    apply_inserts(env, AbortReason::TsOrderViolation)?;
    let ts = env.st.ts;
    // WAL commit point: inserts (the only fallible step) are published,
    // every prewrite is still pending — serialization is by `ts`, and a
    // conflicting writer cannot install (or log) past our prewrites.
    env.wal_commit_point_seq(ts);
    let me = env.st.txn_id;
    for w in std::mem::take(&mut env.st.wbuf) {
        // A row both written and deleted in this transaction is resolved by
        // the delete below; skip the dead install.
        if env
            .st
            .deletes
            .iter()
            .any(|d| d.table == w.table && d.row == w.row)
        {
            env.pool.free(w.data);
            continue;
        }
        let t = &env.db.tables[w.table as usize];
        let mut latch = env.db.row_meta(w.table, w.row).to_latch();
        debug_assert!(
            latch.wts() <= ts,
            "commit of a stale prewrite (wts {} > ts {ts})",
            latch.wts()
        );
        // SAFETY: all T/O data access happens under the tuple latch.
        let data = unsafe { t.row_mut(w.row) };
        data.copy_from_slice(&w.data[..data.len()]);
        latch.set_wts(latch.wts().max(ts));
        latch.resolve_prewrites(me, |w| env.db.park.grant(w));
        drop(latch);
        env.pool.free(w.data);
    }
    apply_deletes(env);
    env.st.prewrites.clear();
    Ok(())
}

/// Withdraw this transaction's deletes from the indexes. The tuple's
/// `wts` is tombstoned ([`to::TOMBSTONE`]) first, so a scanner holding a stale
/// row reference from a pre-delete B+-tree snapshot aborts (read-too-late)
/// instead of resurrecting the row; the leaf's `del_wts` tag then aborts
/// scanners whose timestamp predates the delete but who arrive after it.
fn apply_deletes(env: &mut SchemeEnv<'_>) {
    let ts = env.st.ts;
    let me = env.st.txn_id;
    for d in std::mem::take(&mut env.st.deletes) {
        // Withdraw the index entries FIRST — while the prewrite is still
        // pending, so a reader holding a stale row reference keeps waiting
        // instead of slipping through a "resolved but not yet removed"
        // window — then tombstone, resolve the prewrite and wake waiters.
        // `del_wts` is raised atomically with the removal (leaf lock), so
        // a scan missing the key is guaranteed to see the tag.
        env.db.index_remove_tagged(d.table, d.key, ts);
        let mut latch = env.db.row_meta(d.table, d.row).to_latch();
        latch.set_wts(to::TOMBSTONE);
        latch.resolve_prewrites(me, |w| env.db.park.grant(w));
    }
}

/// Publish buffered inserts; new tuples start with `wts = rts = ts`
/// (shared with MVCC, where that is the tuple's first version).
/// On a duplicate-key race (a conflict the timestamp checks cannot see),
/// or when the target B+-tree leaf has already been scanned by a *later*
/// timestamp (`scan_rts > ts` — committing would plant a phantom behind
/// that scan), every already-published insert is withdrawn before `fail`
/// returns, so the caller can abort cleanly.
pub(super) fn apply_inserts(env: &mut SchemeEnv<'_>, fail: AbortReason) -> Result<(), AbortReason> {
    let ts = env.st.ts;
    let inserts = std::mem::take(&mut env.st.inserts);
    let mut applied: Vec<(abyss_common::TableId, Key)> = Vec::new();
    let mut failed = false;
    for ins in inserts {
        let t = &env.db.tables[ins.table as usize];
        let data = ins.data.expect("buffered insert has an image");
        if !failed {
            if let Ok(row) = t.allocate_row() {
                // SAFETY: fresh unindexed row.
                unsafe { t.row_mut(row) }.copy_from_slice(&data[..t.row_size()]);
                let mut latch = env.db.row_meta(ins.table, row).to_latch();
                latch.set_wts(ts);
                latch.bump_rts(ts);
                drop(latch);
                // The gap check (leaf `scan_rts` vs our timestamp) runs
                // atomically with publication, under the leaf lock: a
                // *committed* later scan left its tag behind and refuses
                // us here; an in-flight one fails its leaf revalidation.
                match env.db.index_insert_guarded(ins.table, ins.key, row, ts) {
                    Ok(crate::db::OrderedPublish::Done(_)) => {
                        applied.push((ins.table, ins.key));
                    }
                    Ok(crate::db::OrderedPublish::GapProtected) | Err(_) => failed = true,
                }
            } else {
                failed = true;
            }
        }
        env.pool.free(data);
    }
    if failed {
        for (table, key) in applied {
            env.db.index_remove(table, key);
        }
        return Err(fail);
    }
    Ok(())
}
