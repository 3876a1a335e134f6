//! OCC — optimistic concurrency control with distributed, per-tuple
//! validation (§2.2, §4.3 "Distributed Validation").
//!
//! The read phase copies tuples optimistically with a seqlock protocol
//! against each tuple's version+lock word ([`crate::lockword::silo`]) and
//! buffers writes in a private workspace. Validation latches the write set
//! in canonical `(table, row)` order (deadlock-free), re-checks every read
//! against the recorded version — per-tuple checks, no global critical
//! section, the design the paper adopts from Hekaton/Silo — then installs
//! the workspace and bumps versions.
//!
//! OCC allocates **two** timestamps per transaction (start + validation),
//! which is why it hits the allocator bottleneck at half the throughput of
//! the other T/O schemes (Fig. 8b, Fig. 12).

use std::sync::atomic::Ordering;

use abyss_common::{AbortReason, Key, RowIdx, TableId};
use abyss_storage::mempool::PoolBlock;
use abyss_storage::Schema;

use abyss_common::CcScheme;

use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::lockword::silo;
use crate::txn::{DeleteEntry, InsertEntry, ReadEntry, WriteEntry};
use crate::worker::{TxnError, WorkerCtx};

/// Optimistic concurrency control with per-tuple (distributed) validation.
pub struct Occ;

impl CcProtocol for Occ {
    super::scheme_caps!(CcScheme::Occ);

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
        write(env, table, row, f)
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
        delete(env, table, key, row)
    }

    #[inline]
    fn scan(
        ctx: &mut WorkerCtx<Self>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        ctx.scan_occ(table, low, high, f)
    }

    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        // The second (validation) timestamp — OCC's extra trip to the
        // allocator (§5.1). A statically read-only transaction installs
        // nothing, so the fast path skips the trip (RO_COMMIT_SKIPS_TS):
        // validation still runs in full against the read + node sets.
        if !(Self::RO_COMMIT_SKIPS_TS && env.st.read_only) {
            env.stats.ts_allocated += 1;
            let _validation_ts = env.ts.alloc();
        }
        commit(env)
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        abort(env);
    }
}

/// Bounded seqlock read: copy the row at a stable version. Shared with
/// the SILO scheme, whose read phase is identical (the recorded `version`
/// is a TID word there).
fn stable_copy(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<(PoolBlock, u64), AbortReason> {
    let t = &env.db.tables[table as usize];
    let word = &env.db.row_meta(table, row).word;
    // Uninit is safe here: `copy_row_into` overwrites the full row and
    // readers only ever see `buf[..row_size]`.
    let mut buf = env.pool.alloc_uninit(t.row_size());
    let mut spins = 0u32;
    loop {
        let w1 = word.load(Ordering::Acquire);
        if !silo::is_locked(w1) {
            // SAFETY: seqlock protocol — the copy is only *used* if the
            // version word is unchanged (and unlocked) afterwards, proving
            // no writer overlapped.
            unsafe { t.copy_row_into(row, &mut buf) };
            // The fence keeps the copy's loads from sinking below the
            // re-check (an acquire *load* alone only orders later ops).
            std::sync::atomic::fence(Ordering::Acquire);
            let w2 = word.load(Ordering::Relaxed);
            if w1 == w2 {
                return Ok((buf, silo::version(w1)));
            }
        }
        spins += 1;
        if spins > 1_000_000 {
            // A writer died mid-install (cannot happen barring a panic) —
            // fail loudly rather than hang.
            env.pool.free(buf);
            return Err(AbortReason::ValidationFail);
        }
        std::hint::spin_loop();
    }
}

/// OCC read: optimistic copy + read-set entry.
pub(super) fn read(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<ReadRef, AbortReason> {
    if let Some(r) = env.read_own_write(table, row) {
        return Ok(r);
    }
    let (buf, version) = stable_copy(env, table, row)?;
    env.st.rset.push(ReadEntry {
        table,
        row,
        version,
    });
    Ok(env.push_read_copy(table, row, buf))
}

/// OCC write: read-modify-write into the private workspace.
pub(super) fn write(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    if let Some(i) = env.st.wbuf_idx(table, row) {
        let schema = env.db.tables[table as usize].schema();
        f(schema, env.st.wbuf[i].data.as_mut_slice());
        return Ok(());
    }
    let (mut buf, version) = stable_copy(env, table, row)?;
    let schema = env.db.tables[table as usize].schema();
    let len = env.db.tables[table as usize].row_size();
    f(schema, &mut buf[..len]);
    // The RMW read is validated like any other read.
    env.st.rset.push(ReadEntry {
        table,
        row,
        version,
    });
    env.st.wbuf.push(WriteEntry {
        table,
        row,
        data: buf,
    });
    Ok(())
}

/// OCC insert: buffered until the write phase.
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

/// The rows a committing transaction must latch: its write set plus its
/// delete set, deduplicated, in canonical `(table, row)` order
/// (deadlock-free). Reuses the transaction's scratch vector so the hot
/// commit path never allocates; the caller returns it via
/// [`put_back_lock_targets`]. Shared with the SILO scheme.
pub(super) fn take_commit_lock_targets(env: &mut SchemeEnv<'_>) -> Vec<(TableId, RowIdx)> {
    let mut v = std::mem::take(&mut env.st.lock_scratch);
    v.clear();
    v.extend(env.st.wbuf.iter().map(|w| (w.table, w.row)));
    v.extend(env.st.deletes.iter().map(|d| (d.table, d.row)));
    v.sort_unstable();
    v.dedup();
    v
}

/// Return the scratch lock set for reuse by the next transaction.
pub(super) fn put_back_lock_targets(env: &mut SchemeEnv<'_>, v: Vec<(TableId, RowIdx)>) {
    env.st.lock_scratch = v;
}

/// Latch every row in `targets` via its word. On a spin-cap abort every
/// acquired lock has already been released. Shared with the SILO scheme.
pub(super) fn lock_targets(
    env: &mut SchemeEnv<'_>,
    targets: &[(TableId, RowIdx)],
) -> Result<(), AbortReason> {
    for (locked, &(table, row)) in targets.iter().enumerate() {
        let word = &env.db.row_meta(table, row).word;
        let mut spins = 0u32;
        loop {
            let cur = word.load(Ordering::Acquire);
            if !silo::is_locked(cur)
                && word
                    .compare_exchange_weak(
                        cur,
                        silo::lock(cur),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                break;
            }
            spins += 1;
            // Canonical order makes waiting deadlock-free, but bound it so
            // pathological stalls surface as aborts instead of hangs.
            if spins > 10_000_000 {
                unlock_targets(env, &targets[..locked]);
                return Err(AbortReason::ValidationFail);
            }
            std::hint::spin_loop();
        }
    }
    Ok(())
}

/// Unlock latched rows without bumping versions (validation failed;
/// nothing was installed). Shared with SILO.
pub(super) fn unlock_targets(env: &mut SchemeEnv<'_>, targets: &[(TableId, RowIdx)]) {
    for &(table, row) in targets {
        let word = &env.db.row_meta(table, row).word;
        let cur = word.load(Ordering::Acquire);
        debug_assert!(silo::is_locked(cur));
        word.store(silo::unlock(cur), Ordering::Release);
    }
}

/// Validate the recorded B+-tree node set: every leaf observed by a range
/// scan must still carry the version the scan saw — otherwise a structural
/// change (insert, delete, split) touched the scanned key range and the
/// scan may have missed a phantom. Shared with SILO.
pub(super) fn validate_node_set(env: &SchemeEnv<'_>) -> bool {
    env.st.node_set.iter().all(|ns| {
        env.db
            .ordered_index(ns.table)
            .is_some_and(|tree| tree.leaf_version(ns.leaf) == ns.version)
    })
}

/// OCC delete: observe the tuple's version like a read (so validation
/// catches any interleaved change), buffer the removal until the write
/// phase. A repeated delete of the same row is a no-op — a duplicate
/// entry would double-release the tuple word at commit.
pub(super) fn delete(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    row: RowIdx,
) -> Result<(), AbortReason> {
    if env
        .st
        .deletes
        .iter()
        .any(|d| d.table == table && d.row == row)
    {
        return Ok(());
    }
    let word = env.db.row_meta(table, row).word.load(Ordering::Acquire);
    env.st.rset.push(ReadEntry {
        table,
        row,
        version: silo::version(word),
    });
    env.st.deletes.push(DeleteEntry {
        table,
        key,
        row,
        applied: false,
    });
    Ok(())
}

/// Validation + write phase. The caller has already allocated the second
/// (validation) timestamp.
fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
    let targets = take_commit_lock_targets(env);
    let r = commit_locked(env, &targets);
    put_back_lock_targets(env, targets);
    r
}

fn commit_locked(
    env: &mut SchemeEnv<'_>,
    targets: &[(TableId, RowIdx)],
) -> Result<(), AbortReason> {
    // Lock the write + delete sets in canonical order — per-tuple latches.
    lock_targets(env, targets)?;

    // Validate the read set: versions unchanged, no foreign locks.
    for r in env.st.rset.iter() {
        let word = env.db.row_meta(r.table, r.row).word.load(Ordering::Acquire);
        let own = targets.binary_search(&(r.table, r.row)).is_ok();
        if silo::version(word) != r.version || (silo::is_locked(word) && !own) {
            unlock_targets(env, targets);
            return Err(AbortReason::ValidationFail);
        }
    }

    // Publish inserts BEFORE node-set validation (their rows stay latched
    // until commit, so nothing can read them early): two committers
    // concurrently inserting into each other's scanned ranges then both
    // see the other's leaf bump and at least one aborts — published-first
    // is what makes the node set able to observe concurrent inserts at
    // all (Silo inserts into the tree before validating for this reason).
    let inserted = match publish_buffered_inserts(env) {
        Ok(v) => v,
        Err(reason) => {
            unlock_targets(env, targets);
            return Err(reason);
        }
    };
    // Our own inserts legitimately bumped leaves we may have scanned
    // ourselves; refresh those node-set entries so self-inserts into a
    // self-scanned range do not self-abort.
    refresh_own_node_set(env, &inserted);

    // Validate the node set (phantom protection for range scans).
    if !validate_node_set(env) {
        withdraw_published_inserts(env, &inserted);
        unlock_targets(env, targets);
        return Err(AbortReason::ValidationFail);
    }

    // WAL commit point: validated, every write-set latch still held, and
    // nothing below can fail — the record is appended (and, under
    // per-commit fsync, forced) before any latch releases, so a
    // conflicting successor can neither draw an earlier serial nor
    // become durable without us.
    env.wal_commit_point_csn();

    // Nothing can fail past this point. Release the fresh rows at version
    // 0 — OCC's "never written" state — making the inserts readable.
    for &(table, _, row, _) in &inserted {
        env.db.row_meta(table, row).word.store(0, Ordering::Release);
    }

    // Delete phase: withdraw index entries (bumping the covering leaf's
    // version, which fails any in-flight scanner's node set), then bump
    // and release the tuple word so stale readers fail validation.
    let deletes = std::mem::take(&mut env.st.deletes);
    for d in deletes.iter() {
        env.db.index_remove(d.table, d.key);
        let word = &env.db.row_meta(d.table, d.row).word;
        let cur = word.load(Ordering::Acquire);
        word.store(silo::bump_and_unlock(cur), Ordering::Release);
    }

    // Write phase: install the workspace and bump versions.
    for w in std::mem::take(&mut env.st.wbuf) {
        if deletes.iter().any(|d| d.table == w.table && d.row == w.row) {
            // Written then deleted in this transaction: the delete won and
            // its word is already released.
            env.pool.free(w.data);
            continue;
        }
        let t = &env.db.tables[w.table as usize];
        // SAFETY: we hold the tuple's silo lock; readers' seqlock re-check
        // rejects any copy that overlapped this write.
        let data = unsafe { t.row_mut(w.row) };
        data.copy_from_slice(&w.data[..data.len()]);
        let word = &env.db.row_meta(w.table, w.row).word;
        let cur = word.load(Ordering::Acquire);
        word.store(silo::bump_and_unlock(cur), Ordering::Release);
        env.pool.free(w.data);
    }
    Ok(())
}

/// A published-but-not-yet-committed insert: table, key, fresh row, and
/// the B+-tree landing leaf with its pre-insert version (when the table
/// is ordered).
pub(super) type PublishedInsert = (
    TableId,
    Key,
    RowIdx,
    Option<(abyss_storage::btree::LeafId, u64)>,
);

/// Publish buffered inserts into the table arenas and indexes, with each
/// fresh row's word **latched** — readers and scanners that find the new
/// entries spin/abort instead of observing an uncommitted insert, and the
/// committer releases the words only after validation succeeds (SILO
/// stamps them with the commit TID, OCC with version 0). On a
/// duplicate-key race every already-applied insert of this transaction is
/// withdrawn and the whole batch fails. Shared with the SILO scheme.
pub(super) fn publish_buffered_inserts(
    env: &mut SchemeEnv<'_>,
) -> Result<Vec<PublishedInsert>, AbortReason> {
    let inserts = std::mem::take(&mut env.st.inserts);
    let mut applied: Vec<PublishedInsert> = Vec::new();
    let mut failed = false;
    for ins in inserts {
        let t = &env.db.tables[ins.table as usize];
        let data = ins.data.expect("buffered insert has an image");
        if !failed {
            if let Ok(row) = t.allocate_row() {
                // SAFETY: fresh unindexed row.
                unsafe { t.row_mut(row) }.copy_from_slice(&data[..t.row_size()]);
                // Latch before the row becomes reachable.
                env.db
                    .row_meta(ins.table, row)
                    .word
                    .store(silo::LOCKED, Ordering::Release);
                match env.db.index_insert_tracked(ins.table, ins.key, row) {
                    Ok(leaf) => applied.push((ins.table, ins.key, row, leaf)),
                    Err(_) => failed = true,
                }
            } else {
                failed = true;
            }
        }
        env.pool.free(data);
    }
    if failed {
        withdraw_published_inserts(env, &applied);
        return Err(AbortReason::ValidationFail);
    }
    Ok(applied)
}

/// Undo a publication that cannot commit: withdraw the index entries and
/// release the fresh rows' words (back to the untouched version-0 state;
/// the slots are unreachable afterwards). Shared with the SILO scheme.
pub(super) fn withdraw_published_inserts(env: &mut SchemeEnv<'_>, applied: &[PublishedInsert]) {
    for &(table, key, row, _) in applied {
        env.db.index_remove(table, key);
        env.db.row_meta(table, row).word.store(0, Ordering::Release);
    }
}

/// Advance the node-set entries for leaves this transaction's *own*
/// inserts bumped, so inserting into a self-scanned range does not
/// self-abort — but only when the leaf's pre-insert version (captured
/// under the leaf lock at publication) still equals what the scan
/// recorded. A foreign modification anywhere in between leaves the entry
/// behind and validation (correctly) fails; blindly re-reading the
/// current version here would absorb a concurrent committer's bump and
/// admit the exact cross-insert phantom the node set exists to catch.
/// Shared with the SILO scheme.
pub(super) fn refresh_own_node_set(env: &mut SchemeEnv<'_>, inserted: &[PublishedInsert]) {
    for &(table, _, _, leaf) in inserted {
        let Some((leaf, prev_version)) = leaf else {
            continue;
        };
        for ns in env.st.node_set.iter_mut() {
            if ns.table == table && ns.leaf == leaf && ns.version == prev_version {
                ns.version = prev_version + 1;
            }
        }
    }
}

/// Abort during the read phase: nothing is shared yet; buffers are dropped
/// by the caller's state reset.
pub(super) fn abort(_env: &mut SchemeEnv<'_>) {}
