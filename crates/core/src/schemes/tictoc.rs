//! TICTOC — data-driven timestamp OCC (Yu et al., SIGMOD'16), the ninth
//! scheme, and the second modern one grown on top of the paper's seven.
//!
//! Where every T/O scheme in the paper *allocates* timestamps up front —
//! and §4.3 shows the allocator capping all of them by 1000 cores — TICTOC
//! *computes* each transaction's commit timestamp at commit time, purely
//! from the per-tuple `wts`/`rts` words its read and write sets already
//! touched ([`crate::lockword::tictoc`]). Nothing on the commit path is
//! centralized: no allocator (unlike TIMESTAMP/MVCC/OCC) and no global
//! epoch read either (unlike SILO). The protocol:
//!
//! 1. **Read phase** — OCC's, verbatim: seqlock-stable copies against each
//!    tuple's word, the observed (unlocked) word recorded in the read set,
//!    writes buffered privately (shared code in [`super::occ`]).
//! 2. **Lock** — the write + delete sets are latched in canonical
//!    `(table, row)` order via the shared bit-63 lock (deadlock-free).
//! 3. **Commit timestamp** — computed, not allocated:
//!    `ct = max( max over writes of rts+1 , max over reads of wts )`.
//! 4. **Validate + extend** — every read-set entry must still carry its
//!    recorded `wts`; if its current `rts < ct` the entry is revalidated
//!    by *extending* `rts` to `ct` with a CAS (counted in
//!    [`abyss_common::RunStats::rts_extensions`]) rather than aborting —
//!    the read stays valid through `ct` without being re-read. An entry
//!    locked by another committer that still needs an extension aborts.
//!    When an extension overflows the packed delta, the tuple's `wts` is
//!    bumped (`rts` stays exact; concurrent readers abort conservatively).
//! 5. **Node-set validation** — phantom protection for range scans, shared
//!    with OCC/SILO: buffered inserts publish first (rows latched), then
//!    every scanned leaf must still carry its recorded version.
//! 6. **Install** — workspace rows are copied in place and every written,
//!    inserted or deleted tuple's word is released to `wts = rts = ct`.
//!
//! Serializability: reads are valid over `[wts, rts]`, writes happen at
//! `ct > rts` of everything they overwrite and `ct ≥ wts` of everything
//! read, so every committed transaction has a single logical time at which
//! all its accesses are simultaneously valid — timestamp order embeds the
//! serial order with no coordination beyond the tuples themselves.
//!
//! TICTOC registers with the epoch subsystem ([`crate::epoch`]) exactly
//! like SILO — not for commit identity, but to reuse its quiescence
//! horizon as the GC fence for future reclamation (freed rows, retired
//! leaf nodes): `safe_epoch()` bounds what any in-flight TICTOC
//! transaction can still reference.

use std::sync::atomic::Ordering;

use abyss_common::{AbortReason, CcScheme, Key, RowIdx, TableId};
use abyss_storage::Schema;

use super::occ;
use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::lockword::tictoc;
use crate::worker::TxnError;

/// Data-driven timestamp OCC (TicToc, SIGMOD'16).
pub struct TicToc;

impl CcProtocol for TicToc {
    const SCHEME: CcScheme = CcScheme::TicToc;

    /// TICTOC read: optimistic seqlock copy + read-set recording of the
    /// whole `wts`/`rts` word (OCC's read phase, reused verbatim — the
    /// recorded `version` *is* the packed word).
    #[inline]
    fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
        occ::read(env, table, row)
    }

    /// TICTOC write: read-modify-write into the private workspace.
    #[inline]
    fn write(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        row: RowIdx,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        occ::write(env, table, row, f)
    }

    /// TICTOC insert: buffered until the commit's write phase.
    #[inline]
    fn insert(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        key: Key,
        f: impl FnOnce(&Schema, &mut [u8]),
    ) -> Result<(), AbortReason> {
        occ::insert(env, table, key, f)
    }

    /// TICTOC delete: observed like a read, removed during the write phase.
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

    /// Validation + write phase (steps 2–6 of the module docs).
    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        commit(env)
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        occ::abort(env);
    }
}

fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
    let targets = occ::take_commit_lock_targets(env);
    let r = commit_locked(env, &targets);
    occ::put_back_lock_targets(env, targets);
    r
}

fn commit_locked(
    env: &mut SchemeEnv<'_>,
    targets: &[(TableId, RowIdx)],
) -> Result<(), AbortReason> {
    // Step 2: latch the write + delete sets in canonical order.
    occ::lock_targets(env, targets)?;

    // Step 3: compute the commit timestamp from tuple metadata alone.
    // Writes must serialize after every committed read of their targets
    // (rts + 1); reads must serialize at or after the writes they saw.
    let mut commit_ts = 0u64;
    for &(table, row) in targets {
        let word = env.db.row_meta(table, row).word.load(Ordering::Acquire);
        commit_ts = commit_ts.max(tictoc::rts(word) + 1);
    }
    for r in env.st.rset.iter() {
        commit_ts = commit_ts.max(tictoc::wts(r.version));
    }

    // Step 4: validate the read set, extending rts where the recorded
    // window does not yet cover the commit timestamp.
    for r in env.st.rset.iter() {
        let own = targets.binary_search(&(r.table, r.row)).is_ok();
        let word = &env.db.row_meta(r.table, r.row).word;
        let mut cur = word.load(Ordering::Acquire);
        loop {
            if tictoc::wts(cur) != tictoc::wts(r.version) {
                // Someone committed a write over this read since we copied
                // it; the read cannot be valid at any single timestamp.
                occ::unlock_targets(env, targets);
                return Err(AbortReason::ValidationFail);
            }
            if own || tictoc::rts(cur) >= commit_ts {
                break;
            }
            if tictoc::is_locked(cur) {
                // A foreign committer is installing a new wts here; our
                // read window cannot be extended past it.
                occ::unlock_targets(env, targets);
                return Err(AbortReason::ValidationFail);
            }
            let next = tictoc::extend_rts(cur, commit_ts);
            match word.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    env.stats.rts_extensions += 1;
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    // Step 5: publish inserts (rows latched until install), refresh the
    // node set for our own leaf bumps, then validate the node set — the
    // same phantom fence OCC/SILO use.
    let inserted = match occ::publish_buffered_inserts(env) {
        Ok(v) => v,
        Err(reason) => {
            occ::unlock_targets(env, targets);
            return Err(reason);
        }
    };
    occ::refresh_own_node_set(env, &inserted);
    if !occ::validate_node_set(env) {
        occ::withdraw_published_inserts(env, &inserted);
        occ::unlock_targets(env, targets);
        return Err(AbortReason::ValidationFail);
    }

    // WAL commit point: the computed commit timestamp is the record's
    // serial — a later conflicting writer's cts strictly exceeds ours
    // (its cts ≥ our installed rts + 1), so replay order matches — and
    // the append lands before any write lock releases.
    env.wal_commit_point_seq(commit_ts);

    // Step 6: nothing can fail now. Every touched tuple's word is released
    // to wts = rts = ct: fresh rows become readable, deleted rows' stale
    // readers fail their wts check, written rows carry the new write time.
    let new_word = tictoc::pack(commit_ts, commit_ts);
    for &(table, _, row, _) in &inserted {
        env.db
            .row_meta(table, row)
            .word
            .store(new_word, Ordering::Release);
    }
    let deletes = std::mem::take(&mut env.st.deletes);
    for d in deletes.iter() {
        env.db.index_remove(d.table, d.key);
        env.db
            .row_meta(d.table, d.row)
            .word
            .store(new_word, Ordering::Release);
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
            .store(new_word, Ordering::Release);
        env.pool.free(w.data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use abyss_common::CcScheme;
    use abyss_storage::{row, Catalog, Schema};

    use super::TicToc;
    use crate::config::EngineConfig;
    use crate::db::Database;
    use crate::lockword::tictoc;

    fn tictoc_db(workers: u32) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 1000);
        let db = Database::new(EngineConfig::new(CcScheme::TicToc, workers), cat).unwrap();
        db.load_table(0, 0..100u64, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, 100);
        })
        .unwrap();
        db
    }

    fn word_of(db: &Database, key: u64) -> u64 {
        let row = db.index_get(0, key).unwrap();
        db.row_meta(0, row)
            .word
            .load(std::sync::atomic::Ordering::Acquire)
    }

    #[test]
    fn written_tuple_carries_wts_equal_rts() {
        let db = tictoc_db(1);
        let mut ctx = db.worker_as::<TicToc>(0);
        ctx.run_txn(&[], |t| t.update(0, 7, |s, d| row::set_u64(s, d, 1, 777)))
            .unwrap();
        let w = word_of(&db, 7);
        assert!(!tictoc::is_locked(w));
        assert!(tictoc::wts(w) > 0, "committed write must advance wts");
        assert_eq!(tictoc::wts(w), tictoc::rts(w));
    }

    #[test]
    fn wts_is_monotonic_across_commits() {
        let db = tictoc_db(1);
        let mut ctx = db.worker_as::<TicToc>(0);
        let mut last = 0u64;
        for i in 0..5u64 {
            ctx.run_txn(&[], |t| {
                t.update(0, 3, |s, d| row::set_u64(s, d, 1, 200 + i))
            })
            .unwrap();
            let wts = tictoc::wts(word_of(&db, 3));
            assert!(wts > last, "wts must strictly increase on rewrites");
            last = wts;
        }
    }

    #[test]
    fn read_then_write_elsewhere_extends_rts() {
        let db = tictoc_db(1);
        let mut ctx = db.worker_as::<TicToc>(0);
        // Drive key 9's rts up by writing it twice, then commit a txn that
        // reads key 5 and writes key 9: its computed commit timestamp is
        // rts(9)+1 > rts(5), so validating the read of 5 must extend it.
        for _ in 0..2 {
            ctx.run_txn(&[], |t| t.update(0, 9, |s, d| row::set_u64(s, d, 1, 1)))
                .unwrap();
        }
        let rts5_before = tictoc::rts(word_of(&db, 5));
        let ext_before = ctx.stats.rts_extensions;
        ctx.run_txn(&[], |t| {
            let v = t.read_u64(0, 5, 1)?;
            t.update(0, 9, |s, d| row::set_u64(s, d, 1, v))
        })
        .unwrap();
        assert!(
            ctx.stats.rts_extensions > ext_before,
            "commit must extend the read tuple's rts"
        );
        assert!(tictoc::rts(word_of(&db, 5)) > rts5_before);
        // The extension validated the read without changing its data...
        assert_eq!(
            tictoc::wts(word_of(&db, 5)),
            0,
            "rts extension must not disturb wts"
        );
    }

    #[test]
    fn stale_read_set_fails_validation() {
        let db = tictoc_db(2);
        let mut a = db.worker_as::<TicToc>(0);
        let mut b = db.worker_as::<TicToc>(1);
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

    #[test]
    fn read_only_txn_commits_against_concurrent_writer() {
        // TicToc's headline behaviour: a read-only transaction whose reads
        // span two writer commits still commits — each read is valid over
        // its [wts, rts] window and the computed commit timestamp picks a
        // point inside all of them (no re-read, no abort).
        let db = tictoc_db(2);
        let mut reader = db.worker_as::<TicToc>(0);
        let mut writer = db.worker_as::<TicToc>(1);
        reader.begin(&[], None).unwrap();
        let a = reader.read_u64(0, 1, 1).unwrap();
        // A writer commits to an *unrelated* key between the reads.
        writer
            .run_txn(&[], |t| t.update(0, 50, |s, d| row::set_u64(s, d, 1, 7)))
            .unwrap();
        let b = reader.read_u64(0, 2, 1).unwrap();
        assert_eq!((a, b), (100, 100));
        reader.commit().unwrap();
    }

    #[test]
    fn delta_overflow_during_extension_bumps_wts() {
        // Force a commit timestamp more than DELTA_MAX above a read
        // tuple's wts: the extension must bump the tuple's wts rather than
        // truncate rts, and the committing transaction itself must not be
        // tripped up by its own bump.
        let db = tictoc_db(1);
        let row5 = db.index_get(0, 5).unwrap();
        let row9 = db.index_get(0, 9).unwrap();
        // Plant metadata directly: key 9 already valid far in the future,
        // key 5 untouched. A txn reading 5 and writing 9 commits at
        // rts(9)+1, which overflows 5's delta.
        let far = tictoc::DELTA_MAX + 1000;
        db.row_meta(0, row9)
            .word
            .store(tictoc::pack(far, far), std::sync::atomic::Ordering::Release);
        let mut ctx = db.worker_as::<TicToc>(0);
        ctx.run_txn(&[], |t| {
            let v = t.read_u64(0, 5, 1)?;
            t.update(0, 9, |s, d| row::set_u64(s, d, 1, v))
        })
        .unwrap();
        let w5 = db
            .row_meta(0, row5)
            .word
            .load(std::sync::atomic::Ordering::Acquire);
        assert_eq!(tictoc::rts(w5), far + 1, "rts must reach the commit ts");
        assert_eq!(
            tictoc::wts(w5),
            far + 1 - tictoc::DELTA_MAX,
            "delta overflow must bump wts, not truncate rts"
        );
    }

    #[test]
    fn epoch_quiescence_tracks_tictoc_txns() {
        // TICTOC reuses the epoch subsystem as its GC horizon: a worker
        // inside a transaction pins its entry epoch; outside, it is
        // quiescent.
        let db = tictoc_db(1);
        let em = db.epoch_manager();
        assert_eq!(em.min_active(), None);
        let mut ctx = db.worker_as::<TicToc>(0);
        ctx.begin(&[], None).unwrap();
        let pinned = em.min_active().expect("txn must register in the epoch");
        em.advance();
        assert_eq!(em.min_active(), Some(pinned), "entry epoch stays pinned");
        assert_eq!(em.safe_epoch(), pinned);
        ctx.commit().unwrap();
        assert_eq!(em.min_active(), None, "commit must quiesce the worker");
        assert_eq!(em.safe_epoch(), em.current());
    }
}
