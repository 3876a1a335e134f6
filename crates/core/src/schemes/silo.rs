//! SILO — modern epoch-based OCC (Tu et al., SOSP'13), the eighth scheme
//! grown on top of the paper's seven.
//!
//! Where the paper's OCC pays **two** trips to the global timestamp
//! allocator per transaction (start + validation, §4.3/Fig. 8b), SILO
//! pays **zero**: commit identity comes from an epoch-tagged 64-bit TID
//! word per tuple (layout in [`crate::epoch`]). The protocol:
//!
//! 1. **Read phase** — identical to OCC's: seqlock-stable copies against
//!    each tuple's TID word, the observed word recorded in the read set,
//!    writes buffered in a private workspace (shared code in
//!    [`super::occ`]).
//! 2. **Lock** — the write set is sorted into canonical `(table, row)`
//!    order and each tuple's TID word is latched via its lock bit
//!    ([`crate::lockword::silo`]), making concurrent validation
//!    deadlock-free.
//! 3. **Epoch fence** — the global epoch is read *after* all write locks
//!    are held; this is the transaction's serialization point.
//! 4. **Validate** — every read-set entry must still carry its recorded
//!    TID and must not be locked by another transaction.
//! 5. **Commit TID** — the smallest TID that is greater than every TID
//!    observed in the read/write sets and the worker's previous commit
//!    TID, and that carries the fenced epoch.
//! 6. **Install** — workspace rows are copied in place and each written
//!    tuple's word is released to the new TID.
//!
//! The worker-local TID monotonicity plus the per-tuple observations make
//! TID order embed the serial order within an epoch; the epoch fence
//! orders transactions across epochs. No step touches a centralized
//! counter, which is exactly the property the paper's §4.3 calls for at
//! one thousand cores.

use std::sync::atomic::Ordering;

use abyss_common::{AbortReason, CcScheme, Key, RowIdx, TableId};
use abyss_storage::Schema;

use super::occ;
use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::epoch;
use crate::lockword::silo;
use crate::worker::TxnError;

/// Epoch-based OCC (Silo, SOSP'13).
pub struct Silo;

impl CcProtocol for Silo {
    const SCHEME: CcScheme = CcScheme::Silo;

    /// SILO read: optimistic seqlock copy + read-set TID recording (OCC's
    /// read phase, reused verbatim — the recorded `version` is the TID
    /// word).
    #[inline]
    fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
        occ::read(env, table, row)
    }

    /// SILO write: read-modify-write into the private workspace.
    #[inline]
    fn write(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        occ::write(env, table, row, f)
    }

    /// SILO insert: buffered until the commit's write phase.
    #[inline]
    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        occ::insert(env, table, key, f)
    }

    /// SILO delete: observed like a read, removed during the write phase
    /// (OCC's buffered delete, shared).
    #[inline]
    fn delete(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        row: RowIdx,
    ) -> Result<(), AbortReason> {
        occ::delete(env, table, key, row)
    }

    #[inline]
    fn scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        occ::scan(env, table, low, high, f)
    }

    /// Validation + write phase; the commit TID comes from the epoch
    /// subsystem plus per-tuple observations (no validation timestamp).
    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        let last = *env.last_tid;
        let tid = commit(env, last)?;
        *env.last_tid = tid;
        Ok(())
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        occ::abort(env);
    }
}

/// Validation + write phase. `last_tid` is the worker's previous commit
/// TID; on success the new (strictly greater) commit TID is returned for
/// the worker to remember.
fn commit(env: &mut SchemeEnv<'_>, last_tid: u64) -> Result<u64, AbortReason> {
    let targets = occ::take_commit_lock_targets(env);
    let r = commit_locked(env, &targets, last_tid);
    occ::put_back_lock_targets(env, targets);
    r
}

fn commit_locked(
    env: &mut SchemeEnv<'_>,
    targets: &[(TableId, RowIdx)],
    last_tid: u64,
) -> Result<u64, AbortReason> {
    // Phase 1: lock the write + delete sets in canonical order — per-tuple
    // latches only, bounded spins so a pathological stall aborts instead
    // of hanging (OCC's lock phase, shared).
    occ::lock_targets(env, targets)?;

    // Phase 2: the epoch fence — the serialization point. Reading the
    // global epoch *after* every write lock is held guarantees no TID this
    // transaction observed can carry a later epoch.
    std::sync::atomic::fence(Ordering::SeqCst);
    let commit_epoch = env.db.epoch.current();

    // Phase 3: validate the read set — TIDs unchanged, no foreign locks —
    // and fold every observed TID into the commit-TID floor.
    let mut max_observed = last_tid.max(epoch::compose_tid(commit_epoch, 0));
    for r in env.st.rset.iter() {
        let word = env.db.row_meta(r.table, r.row).word.load(Ordering::Acquire);
        let own = targets.binary_search(&(r.table, r.row)).is_ok();
        if silo::version(word) != r.version || (silo::is_locked(word) && !own) {
            occ::unlock_targets(env, targets);
            return Err(AbortReason::ValidationFail);
        }
        max_observed = max_observed.max(r.version);
    }

    // Phase 3b: publish inserts — their rows stay latched until phase 4 —
    // *before* the node-set check, so concurrent committers inserting
    // into each other's scanned ranges see each other's leaf bumps and at
    // least one aborts (Silo inserts into Masstree before validating for
    // exactly this reason).
    let inserted = match occ::publish_buffered_inserts(env) {
        Ok(v) => v,
        Err(reason) => {
            occ::unlock_targets(env, targets);
            return Err(reason);
        }
    };
    occ::refresh_own_node_set(env, &inserted);

    // Phase 3c: node-set validation — the leaves every range scan read
    // must be structurally unchanged, or a phantom may have slipped into
    // a scanned gap (Silo's Masstree node-set check).
    if !occ::validate_node_set(env) {
        occ::withdraw_published_inserts(env, &inserted);
        occ::unlock_targets(env, targets);
        return Err(AbortReason::ValidationFail);
    }
    let commit_tid = max_observed + 1;
    debug_assert_eq!(
        epoch::tid_epoch(commit_tid),
        commit_epoch,
        "per-epoch sequence space exhausted"
    );
    // WAL commit point: the commit TID (which embeds the fenced epoch) is
    // the record's serial — conflicting transactions' TIDs order exactly
    // as their installs do — and the append lands before any write lock
    // releases.
    env.wal_commit_point_at(commit_epoch, commit_tid);

    // Phase 4: nothing can fail now. Release the fresh rows at the commit
    // TID — every committed tuple's word carries its commit epoch (the
    // invariant `safe_epoch` consumers rely on) — then apply deletes and
    // install the workspace, releasing each word to the commit TID.
    for &(table, _, row, _) in &inserted {
        env.db
            .row_meta(table, row)
            .word
            .store(commit_tid, Ordering::Release);
    }
    // Deletes: withdraw the index entries (bumping the covering leaf's
    // version — in-flight scanners fail their node set), then release the
    // word at the commit TID so stale readers fail validation.
    let deletes = std::mem::take(&mut env.st.deletes);
    for d in deletes.iter() {
        env.db.index_remove(d.table, d.key);
        env.db
            .row_meta(d.table, d.row)
            .word
            .store(commit_tid, Ordering::Release);
    }
    for w in std::mem::take(&mut env.st.wbuf) {
        if deletes.iter().any(|d| d.table == w.table && d.row == w.row) {
            env.pool.free(w.data);
            continue;
        }
        let t = &env.db.tables[w.table as usize];
        // SAFETY: we hold the tuple's lock bit; readers' seqlock re-check
        // rejects any copy that overlapped this write.
        let data = unsafe { t.row_mut(w.row) };
        data.copy_from_slice(&w.data[..data.len()]);
        env.db
            .row_meta(w.table, w.row)
            .word
            .store(commit_tid, Ordering::Release);
        env.pool.free(w.data);
    }
    Ok(commit_tid)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use abyss_common::CcScheme;
    use abyss_storage::{row, Catalog, Schema};

    use super::Silo;
    use crate::config::EngineConfig;
    use crate::db::Database;

    fn silo_db(workers: u32) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 1000);
        let db = Database::new(EngineConfig::new(CcScheme::Silo, workers), cat).unwrap();
        db.load_table(0, 0..100u64, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, 100);
        })
        .unwrap();
        db
    }

    #[test]
    fn commit_tids_are_monotonic_and_epoch_tagged() {
        let db = silo_db(1);
        let mut ctx = db.worker_as::<Silo>(0);
        let mut last = 0u64;
        for i in 0..5u64 {
            ctx.run_txn(&[], |t| {
                t.update(0, i, |s, d| row::set_u64(s, d, 1, 200 + i))
            })
            .unwrap();
            let tid = ctx.last_commit_tid();
            assert!(tid > last, "commit TIDs must be strictly increasing");
            assert!(crate::epoch::tid_epoch(tid) >= crate::epoch::FIRST_EPOCH);
            last = tid;
        }
    }

    #[test]
    fn written_tuple_carries_the_commit_tid() {
        let db = silo_db(1);
        let mut ctx = db.worker_as::<Silo>(0);
        ctx.run_txn(&[], |t| t.update(0, 7, |s, d| row::set_u64(s, d, 1, 777)))
            .unwrap();
        let meta = db.row_meta(0, db.index_get(0, 7).unwrap());
        assert_eq!(meta.tid(), ctx.last_commit_tid());
        let word = meta.word.load(std::sync::atomic::Ordering::Acquire);
        assert!(!crate::lockword::silo::is_locked(word));
    }

    #[test]
    fn inserted_rows_carry_the_commit_tid() {
        let db = silo_db(1);
        let mut ctx = db.worker_as::<Silo>(0);
        ctx.run_txn(&[], |t| {
            t.insert(0, 500, |s, d| {
                row::set_u64(s, d, 0, 500);
                row::set_u64(s, d, 1, 1);
            })
        })
        .unwrap();
        let meta = db.row_meta(0, db.index_get(0, 500).unwrap());
        assert_eq!(meta.tid(), ctx.last_commit_tid());
        assert!(crate::epoch::tid_epoch(meta.tid()) >= crate::epoch::FIRST_EPOCH);
    }

    #[test]
    fn epoch_advance_raises_commit_epochs() {
        let db = silo_db(1);
        let mut ctx = db.worker_as::<Silo>(0);
        ctx.run_txn(&[], |t| t.update(0, 1, |s, d| row::set_u64(s, d, 1, 1)))
            .unwrap();
        let e1 = crate::epoch::tid_epoch(ctx.last_commit_tid());
        db.epoch_manager().advance();
        db.epoch_manager().advance();
        ctx.run_txn(&[], |t| t.update(0, 1, |s, d| row::set_u64(s, d, 1, 2)))
            .unwrap();
        let e2 = crate::epoch::tid_epoch(ctx.last_commit_tid());
        assert!(
            e2 >= e1 + 2,
            "commit epoch must follow the advanced global epoch"
        );
    }

    #[test]
    fn epoch_advance_mid_transaction_lands_in_commit_tid() {
        // The epoch fence reads the global epoch *after* the write locks
        // are held — so an advance that races the transaction (between its
        // reads and its commit) must be reflected in the commit TID, not
        // the epoch current at begin().
        let db = silo_db(1);
        let mut ctx = db.worker_as::<Silo>(0);
        ctx.begin(&[], None).unwrap();
        let v = ctx.read_u64(0, 1, 1).unwrap();
        let advanced = db.epoch_manager().advance();
        ctx.update(0, 1, |s, d| row::set_u64(s, d, 1, v + 1))
            .unwrap();
        ctx.commit().unwrap();
        assert_eq!(
            crate::epoch::tid_epoch(ctx.last_commit_tid()),
            advanced,
            "commit epoch must be read at the fence, not at begin"
        );
    }

    #[test]
    fn stale_read_set_fails_validation() {
        let db = silo_db(2);
        let mut a = db.worker_as::<Silo>(0);
        let mut b = db.worker_as::<Silo>(1);
        // a reads key 5, then b commits a write to it; a's commit (which
        // also writes, so it cannot be a blind no-op) must abort.
        a.begin(&[], None).unwrap();
        let v = a.read_u64(0, 5, 1).unwrap();
        assert_eq!(v, 100);
        a.update(0, 6, |s, d| row::set_u64(s, d, 1, v + 1)).unwrap();
        b.run_txn(&[], |t| t.update(0, 5, |s, d| row::set_u64(s, d, 1, 999)))
            .unwrap();
        let r = a.commit();
        assert!(
            matches!(
                r,
                Err(crate::worker::TxnError::Abort(
                    abyss_common::AbortReason::ValidationFail
                ))
            ),
            "stale read must fail validation, got {r:?}"
        );
    }
}
