//! The three two-phase-locking variants: NO_WAIT, DL_DETECT, WAIT_DIE.
//!
//! * **NO_WAIT** never touches a queue: shared/exclusive counts live in a
//!   single atomic word per tuple ([`crate::lockword::rw`]) and any denied
//!   CAS aborts the requester — "no centralized point of contention"
//!   (Table 2).
//! * **DL_DETECT** uses per-tuple wait queues plus the partitioned
//!   lock-free waits-for graph of §4.2. The *waiting* thread runs cycle
//!   detection periodically and aborts itself when it finds one (the
//!   cheapest victim that is guaranteed to break the cycle); a configurable
//!   timeout (Fig. 5) bounds the wait either way.
//! * **WAIT_DIE** grants whenever the request is compatible with the
//!   current *owners* (the classical formulation — waiter queues never
//!   block compatible readers), otherwise the requester waits iff it is
//!   older than every conflicting owner and dies otherwise. Every wait
//!   edge therefore points old → young, so no deadlock can form, and
//!   restarted transactions keep their original timestamp so they
//!   eventually become the oldest.
//!
//! Lock upgrades (S → X by the same transaction) are supported on the
//! queue variants when grantable, and otherwise abort; the paper's
//! workloads never upgrade (YCSB deduplicates keys per transaction; TPC-C
//! reads and updates disjoint tuples).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use abyss_common::{AbortReason, CcScheme, Key, RowIdx, TableId, TxnId};
use abyss_storage::Schema;

use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::db::Database;
use crate::lockword::rw;
use crate::meta::{LockMode, Owner, RowMeta, Waiter};
use crate::park::WaitOutcome;
use crate::txn::{DeleteEntry, HeldLock, InsertEntry, TxnState, UndoEntry, GAP_ROW};
use crate::worker::TxnError;

/// 2PL with non-waiting deadlock prevention (deny => abort).
pub struct NoWait;
/// 2PL with waits-for-graph deadlock detection.
pub struct DlDetect;
/// 2PL with wait-die deadlock prevention (older waits, younger dies).
pub struct WaitDie;

/// The variant-specific slice of the 2PL protocol: the grant discipline
/// and where lock ownership lives (NO_WAIT packs it into the atomic
/// word; the queue variants keep owner/waiter lists). Everything else —
/// hold tracking, gap locking, undo, the shrink phase — is shared code
/// generic over this trait.
trait Variant {
    /// Acquire `mode` on the tuple (the transaction does not hold it yet;
    /// `upgrade` means it holds S and wants X).
    fn acquire(
        env: &mut SchemeEnv<'_>,
        meta: &RowMeta,
        mode: LockMode,
        upgrade: bool,
    ) -> Result<(), AbortReason>;

    /// Release one held lock (shrink phase, failed-insert unwind),
    /// granting any newly compatible waiters.
    fn release_one(db: &Database, txn: TxnId, meta: &RowMeta, mode: LockMode);

    /// Install X ownership of a freshly allocated row *before* it becomes
    /// index-reachable (insert publication).
    fn seed_exclusive(db: &Database, st: &TxnState, meta: &RowMeta);
}

impl Variant for NoWait {
    fn acquire(
        _env: &mut SchemeEnv<'_>,
        meta: &RowMeta,
        mode: LockMode,
        upgrade: bool,
    ) -> Result<(), AbortReason> {
        acquire_no_wait(meta, mode, upgrade)
    }

    fn release_one(_db: &Database, _txn: TxnId, meta: &RowMeta, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                meta.word.fetch_sub(1, Ordering::AcqRel);
            }
            LockMode::Exclusive => {
                meta.word.store(0, Ordering::Release);
            }
        }
    }

    fn seed_exclusive(_db: &Database, _st: &TxnState, meta: &RowMeta) {
        meta.word.store(rw::WRITER, Ordering::Release);
    }
}

impl Variant for DlDetect {
    fn acquire(
        env: &mut SchemeEnv<'_>,
        meta: &RowMeta,
        mode: LockMode,
        upgrade: bool,
    ) -> Result<(), AbortReason> {
        acquire_dl_detect(env, meta, mode, upgrade)
    }

    fn release_one(db: &Database, txn: TxnId, meta: &RowMeta, mode: LockMode) {
        queue_release(db, txn, meta, mode);
    }

    fn seed_exclusive(_db: &Database, st: &TxnState, meta: &RowMeta) {
        queue_seed(st, meta);
    }
}

impl Variant for WaitDie {
    fn acquire(
        env: &mut SchemeEnv<'_>,
        meta: &RowMeta,
        mode: LockMode,
        upgrade: bool,
    ) -> Result<(), AbortReason> {
        acquire_wait_die(env, meta, mode, upgrade)
    }

    fn release_one(db: &Database, txn: TxnId, meta: &RowMeta, mode: LockMode) {
        queue_release(db, txn, meta, mode);
    }

    fn seed_exclusive(_db: &Database, st: &TxnState, meta: &RowMeta) {
        queue_seed(st, meta);
    }
}

/// Queue-variant release: drop ownership, grant newly compatible waiters.
fn queue_release(db: &Database, txn: TxnId, meta: &RowMeta, _mode: LockMode) {
    let mut q = meta.lock_queue();
    q.remove_owner(txn);
    grant_waiters(db, &mut q);
}

/// Queue-variant fresh-row ownership (the queue is necessarily empty: the
/// row is not yet reachable).
fn queue_seed(st: &TxnState, meta: &RowMeta) {
    let mut q = meta.lock_queue();
    q.owners.push(Owner {
        txn: st.txn_id,
        mode: LockMode::Exclusive,
        ts: st.ts,
    });
}

/// The shared [`CcProtocol`] surface of the three variants.
macro_rules! twopl_protocol {
    ($ty:ident, $scheme:expr) => {
        impl CcProtocol for $ty {
            const SCHEME: CcScheme = $scheme;

            #[inline]
            fn read(
                env: &mut SchemeEnv<'_>,
                table: TableId,
                row: RowIdx,
            ) -> Result<ReadRef, AbortReason> {
                read::<Self>(env, table, row)
            }

            #[inline]
            fn write(
                env: &mut SchemeEnv<'_>,
                table: TableId,
                row: RowIdx,
                f: impl FnOnce(&Schema, &mut [u8]),
            ) -> Result<(), AbortReason> {
                write::<Self>(env, table, row, f)
            }

            #[inline]
            fn insert(
                env: &mut SchemeEnv<'_>,
                table: TableId,
                key: Key,
                f: impl FnOnce(&Schema, &mut [u8]),
            ) -> Result<(), AbortReason> {
                insert::<Self>(env, table, key, f)
            }

            #[inline]
            fn delete(
                env: &mut SchemeEnv<'_>,
                table: TableId,
                key: Key,
                row: RowIdx,
            ) -> Result<(), AbortReason> {
                delete::<Self>(env, table, key, row)
            }

            #[inline]
            fn scan(
                env: &mut SchemeEnv<'_>,
                table: TableId,
                low: Key,
                high: Key,
                f: &mut dyn FnMut(Key, &Schema, &[u8]),
            ) -> Result<usize, TxnError> {
                scan::<Self>(env, table, low, high, f)
            }

            fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
                // WAL commit point: every X lock is still held and the
                // commit below cannot fail — the record is appended (and
                // under per-commit fsync, forced) before any lock
                // releases, so a conflicting successor can neither draw
                // an earlier serial nor become durable without us.
                env.wal_commit_point_csn();
                commit::<Self>(env);
                Ok(())
            }

            fn abort(env: &mut SchemeEnv<'_>) {
                abort::<Self>(env);
            }
        }
    };
}

twopl_protocol!(NoWait, CcScheme::NoWait);
twopl_protocol!(DlDetect, CcScheme::DlDetect);
twopl_protocol!(WaitDie, CcScheme::WaitDie);

/// Acquire `mode` on `(table, row)` under variant `V`.
fn acquire<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
    mode: LockMode,
) -> Result<(), AbortReason> {
    if env.st.holds(table, row, mode) {
        return Ok(());
    }
    let upgrade = mode == LockMode::Exclusive && env.st.holds(table, row, LockMode::Shared);
    let meta = env.db.row_meta(table, row);
    V::acquire(env, meta, mode, upgrade)?;
    if upgrade {
        for h in env.st.held.iter_mut() {
            if h.table == table && h.row == row {
                h.mode = LockMode::Exclusive;
            }
        }
    } else {
        env.st.held.push(HeldLock { table, row, mode });
    }
    Ok(())
}

/// NO_WAIT: single-word CAS protocol; denial aborts.
fn acquire_no_wait(meta: &RowMeta, mode: LockMode, upgrade: bool) -> Result<(), AbortReason> {
    let word = &meta.word;
    if upgrade {
        // Sole reader may swap its S for an X atomically.
        return word
            .compare_exchange(1, rw::WRITER, Ordering::AcqRel, Ordering::Acquire)
            .map(drop)
            .map_err(|_| AbortReason::LockConflict);
    }
    match mode {
        LockMode::Shared => {
            let mut w = word.load(Ordering::Acquire);
            loop {
                if rw::has_writer(w) {
                    return Err(AbortReason::LockConflict);
                }
                match word.compare_exchange_weak(
                    w,
                    rw::add_reader(w),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Ok(()),
                    Err(cur) => w = cur,
                }
            }
        }
        LockMode::Exclusive => word
            .compare_exchange(0, rw::WRITER, Ordering::AcqRel, Ordering::Acquire)
            .map(drop)
            .map_err(|_| AbortReason::LockConflict),
    }
}

/// Can `w` be granted right now given `q`'s owners (and, for non-upgrades,
/// an empty-or-jumpable queue position)?
fn grantable(q: &crate::meta::LockQueue, txn: u64, mode: LockMode, upgrade: bool) -> bool {
    if upgrade {
        q.owners.iter().all(|o| o.txn == txn)
    } else {
        q.compatible_with_owners(mode, txn)
    }
}

/// DL_DETECT: queue behind conflicts, publish waits-for edges, detect.
fn acquire_dl_detect(
    env: &mut SchemeEnv<'_>,
    meta: &RowMeta,
    mode: LockMode,
    upgrade: bool,
) -> Result<(), AbortReason> {
    let me = env.st.txn_id;
    let cfg = &env.db.cfg;
    let waitees: Vec<u64> = {
        let mut q = meta.lock_queue();
        // FIFO fairness: a new request must queue behind existing waiters
        // (upgrades jump the queue — they already hold S and granting them
        // first is the only way the queue can ever drain).
        if grantable(&q, me, mode, upgrade) && (upgrade || q.waiters.is_empty()) {
            if upgrade {
                for o in q.owners.iter_mut().filter(|o| o.txn == me) {
                    o.mode = LockMode::Exclusive;
                }
            } else {
                q.owners.push(Owner {
                    txn: me,
                    mode,
                    ts: 0,
                });
            }
            return Ok(());
        }
        env.db.park.arm(env.worker);
        let w = Waiter {
            txn: me,
            worker: env.worker,
            mode,
            ts: 0,
            upgrade,
        };
        q.waiters.push_back(w);
        // Waits-for edges: the conflicting owners plus everyone queued
        // ahead of us (we cannot be granted before them).
        q.conflicting_owners(mode, me)
            .map(|o| o.txn)
            .chain(q.waiters.iter().filter(|x| x.txn != me).map(|x| x.txn))
            .collect()
    };
    env.db.waits.publish_waits(env.worker, waitees);

    let started = Instant::now();
    let timeout = cfg.dl_timeout_us.min(cfg.wait_cap_us);
    let deadline = started + Duration::from_micros(timeout);
    let interval = Duration::from_micros(cfg.dl_detect_interval_us.max(1));
    let waits = &env.db.waits;
    let out = env
        .db
        .park
        .wait_with_check(env.worker, deadline, interval, || waits.detect_cycle(me));
    env.record_wait(started);
    env.db.waits.clear_waits(env.worker);

    match out {
        WaitOutcome::Granted => Ok(()),
        WaitOutcome::TimedOut => {
            let mut q = meta.lock_queue();
            if q.remove_waiter(me) {
                env.db.park.reset(env.worker);
                drop(q);
                if env.db.waits.detect_cycle(me) {
                    Err(AbortReason::Deadlock)
                } else {
                    Err(AbortReason::WaitTimeout)
                }
            } else {
                // The grant raced our timeout: we are an owner now.
                drop(q);
                env.db.park.reset(env.worker);
                Ok(())
            }
        }
    }
}

/// WAIT_DIE: older waits, younger dies; grants keyed off owners only.
fn acquire_wait_die(
    env: &mut SchemeEnv<'_>,
    meta: &RowMeta,
    mode: LockMode,
    upgrade: bool,
) -> Result<(), AbortReason> {
    let me = env.st.txn_id;
    let my_ts = env.st.ts;
    {
        let mut q = meta.lock_queue();
        if grantable(&q, me, mode, upgrade) {
            if upgrade {
                for o in q.owners.iter_mut().filter(|o| o.txn == me) {
                    o.mode = LockMode::Exclusive;
                }
            } else {
                q.owners.push(Owner {
                    txn: me,
                    mode,
                    ts: my_ts,
                });
            }
            return Ok(());
        }
        // Deny or wait: wait iff older (smaller ts) than every conflicting
        // owner — "dies" otherwise.
        let youngest_conflict = q
            .conflicting_owners(mode, me)
            .map(|o| o.ts)
            .min()
            .expect("conflict exists");
        if my_ts >= youngest_conflict {
            return Err(AbortReason::WaitDieKilled);
        }
        env.db.park.arm(env.worker);
        let w = Waiter {
            txn: me,
            worker: env.worker,
            mode,
            ts: my_ts,
            upgrade,
        };
        // Keep the queue sorted by ts ascending (oldest first).
        let pos = q
            .waiters
            .iter()
            .position(|x| x.ts > my_ts)
            .unwrap_or(q.waiters.len());
        q.waiters.insert(pos, w);
    }

    let started = Instant::now();
    let deadline = started + Duration::from_micros(env.db.cfg.wait_cap_us);
    let out = env.db.park.wait(env.worker, deadline);
    env.record_wait(started);
    match out {
        WaitOutcome::Granted => Ok(()),
        WaitOutcome::TimedOut => {
            let mut q = meta.lock_queue();
            if q.remove_waiter(me) {
                env.db.park.reset(env.worker);
                Err(AbortReason::WaitTimeout)
            } else {
                drop(q);
                env.db.park.reset(env.worker);
                Ok(())
            }
        }
    }
}

/// Grant queued waiters that have become compatible (caller holds the
/// tuple latch and has already removed itself from the owner list).
pub(crate) fn grant_waiters(db: &crate::db::Database, q: &mut crate::meta::LockQueue) {
    while let Some(w) = q.waiters.front().copied() {
        if !grantable(q, w.txn, w.mode, w.upgrade) {
            break;
        }
        q.waiters.pop_front();
        if w.upgrade {
            for o in q.owners.iter_mut().filter(|o| o.txn == w.txn) {
                o.mode = LockMode::Exclusive;
            }
        } else {
            q.owners.push(Owner {
                txn: w.txn,
                mode: w.mode,
                ts: w.ts,
            });
        }
        db.park.grant(w.worker);
    }
}

/// Release every held lock (commit and abort paths).
fn release_all<V: Variant>(env: &mut SchemeEnv<'_>) {
    let txn = env.st.txn_id;
    for h in std::mem::take(&mut env.st.held) {
        let meta = env.db.row_meta(h.table, h.row);
        V::release_one(env.db, txn, meta, h.mode);
    }
}

/// The next-key lock an inserter must take before publishing `key`: the
/// successor entry's row, or the table's +∞ gap anchor when none exists.
fn gap_target(env: &SchemeEnv<'_>, table: TableId, key: Key) -> Option<RowIdx> {
    let tree = env.db.ordered_index(table)?;
    Some(
        key.checked_add(1)
            .and_then(|from| tree.successor_inclusive(from))
            .map(|(_, row)| row)
            .unwrap_or(GAP_ROW),
    )
}

/// Acquire the inserter's gap (next-key) X lock. Returns the rows whose
/// lock must be dropped again right after the insert is published —
/// ARIES/IM-style instant duration. A lock the transaction already held
/// (or upgraded) stays held to commit.
fn acquire_gap_lock<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<Option<RowIdx>, AbortReason> {
    if env.st.holds(table, row, LockMode::Exclusive) {
        return Ok(None);
    }
    let upgraded = env.st.holds(table, row, LockMode::Shared);
    acquire::<V>(env, table, row, LockMode::Exclusive)?;
    Ok(if upgraded { None } else { Some(row) })
}

/// 2PL read: S-lock then read in place.
fn read<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
) -> Result<ReadRef, AbortReason> {
    acquire::<V>(env, table, row, LockMode::Shared)?;
    let t = &env.db.tables[table as usize];
    // SAFETY: the S lock held until commit/abort excludes writers.
    let data = unsafe { t.row(row) };
    Ok(ReadRef::InPlace {
        ptr: data.as_ptr(),
        len: data.len(),
    })
}

/// 2PL write: X-lock, log the before-image, mutate in place.
fn write<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    acquire::<V>(env, table, row, LockMode::Exclusive)?;
    let t = &env.db.tables[table as usize];
    if !env.st.undo.iter().any(|u| u.table == table && u.row == row) {
        // Uninit is safe: `copy_row_into` fills the full row prefix and
        // the abort path reads exactly that prefix.
        let mut image = env.pool.alloc_uninit(t.row_size());
        // SAFETY: X lock held.
        unsafe { t.copy_row_into(row, &mut image) };
        env.st.undo.push(UndoEntry { table, row, image });
    }
    // SAFETY: X lock held.
    let data = unsafe { t.row_mut(row) };
    f(t.schema(), data);
    Ok(())
}

/// 2PL insert: take the next-key (gap) lock when the table is ordered,
/// allocate, fill, take the new row's X lock, publish in the indexes, and
/// only then drop the instant-duration gap lock. A scanner protecting the
/// target gap holds S on the successor, so the gap X conflicts — that is
/// the phantom guard.
fn insert<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    // Lock the next key, then re-verify it still *is* the next key — a
    // concurrent insert/delete between computing the target and locking it
    // would otherwise leave the wrong row guarding the gap (and a scanner
    // trusting the real successor unprotected). Mirrors the lock-then-
    // recheck step of the scan's next-key walk.
    let mut attempts = 0u32;
    let instant_gap = loop {
        match gap_target(env, table, key) {
            None => break None, // no ordered index: no gap to guard
            Some(gap_row) => {
                let acquired = acquire_gap_lock::<V>(env, table, gap_row)?;
                if gap_target(env, table, key) == Some(gap_row) {
                    break acquired;
                }
                if let Some(row) = acquired {
                    release_last_lock::<V>(env, table, row);
                }
                attempts += 1;
                if attempts > 128 {
                    return Err(AbortReason::LockConflict);
                }
            }
        }
    };
    let release_gap = |env: &mut SchemeEnv<'_>| {
        if let Some(row) = instant_gap {
            release_last_lock::<V>(env, table, row);
        }
    };

    let t = &env.db.tables[table as usize];
    let row = match t.allocate_row() {
        Ok(row) => row,
        Err(_) => {
            release_gap(env);
            return Err(AbortReason::LockConflict);
        }
    };
    // SAFETY: freshly allocated, unindexed row — we are the only accessor.
    let data = unsafe { t.row_mut(row) };
    f(t.schema(), data);

    // Take the lock before the row becomes reachable through the index.
    let meta = env.db.row_meta(table, row);
    V::seed_exclusive(env.db, env.st, meta);
    env.st.held.push(HeldLock {
        table,
        row,
        mode: LockMode::Exclusive,
    });

    if env.db.index_insert(table, key, row).is_err() {
        // Lost an insert race on the same key: roll this slot back out.
        release_last_lock::<V>(env, table, row);
        release_gap(env);
        return Err(AbortReason::LockConflict);
    }
    release_gap(env);
    env.st.inserts.push(InsertEntry {
        table,
        key,
        row: Some(row),
        data: None,
        indexed: true,
    });
    Ok(())
}

/// 2PL delete: X-lock the row now, withdraw the index entries at commit
/// (while the lock is still held), so a concurrent reader either blocks on
/// the X lock or misses the key entirely — never observes an uncommitted
/// delete.
fn delete<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    row: RowIdx,
) -> Result<(), AbortReason> {
    acquire::<V>(env, table, row, LockMode::Exclusive)?;
    env.st.deletes.push(DeleteEntry {
        table,
        key,
        row,
        applied: false,
    });
    Ok(())
}

/// Undo the lock taken by a failed insert (rare path).
fn release_last_lock<V: Variant>(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) {
    env.st.held.retain(|h| !(h.table == table && h.row == row));
    let meta = env.db.row_meta(table, row);
    V::release_one(env.db, env.st.txn_id, meta, LockMode::Exclusive);
}

/// 2PL range scan — a next-key walk: each row (plus the first row beyond
/// `high`, or the table's +∞ gap anchor) is S-locked *before* the gap
/// below it is trusted, and inserters take an instant X on their
/// successor (see [`insert`]), so no key can appear in a scanned gap.
fn scan<V: Variant>(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    low: Key,
    high: Key,
    f: &mut dyn FnMut(Key, &Schema, &[u8]),
) -> Result<usize, TxnError> {
    let db = env.db;
    let tree = db.require_ordered(table)?;
    let mut count = 0usize;
    let mut cursor = low;
    loop {
        match tree.successor_inclusive(cursor) {
            None => {
                // Lock the +∞ gap anchor, then confirm the tail gap is
                // still empty (an insert may have raced the lock).
                acquire::<V>(env, table, GAP_ROW, LockMode::Shared)?;
                if tree.successor_inclusive(cursor).is_some() {
                    env.stats.scan_retries += 1;
                    continue;
                }
                break;
            }
            Some((k, row)) => {
                acquire::<V>(env, table, row, LockMode::Shared)?;
                // Holding S on the successor freezes the gap below it;
                // re-verify nothing slipped in (or that the row itself
                // was deleted) before the lock landed.
                match tree.successor_inclusive(cursor) {
                    Some((k2, r2)) if k2 == k && r2 == row => {
                        if k > high {
                            // Boundary row locked: the (last-in-range,
                            // successor) gap is protected. Done.
                            break;
                        }
                        let t = &db.tables[table as usize];
                        // SAFETY: the S lock held to commit/abort
                        // excludes writers.
                        let data = unsafe { t.row(row) };
                        f(k, t.schema(), data);
                        count += 1;
                        cursor = match k.checked_add(1) {
                            Some(c) => c,
                            None => break,
                        };
                    }
                    _ => {
                        env.stats.scan_retries += 1;
                    }
                }
            }
        }
    }
    Ok(count)
}

/// Commit: apply deferred deletes (X locks still held), drop before-images,
/// release everything (the shrink phase).
fn commit<V: Variant>(env: &mut SchemeEnv<'_>) {
    for d in std::mem::take(&mut env.st.deletes) {
        if !d.applied {
            env.db.index_remove(d.table, d.key);
        }
    }
    release_all::<V>(env);
}

/// Abort: restore before-images, unpublish inserts, release everything.
/// Deferred deletes never touched the indexes, so they need no undo.
fn abort<V: Variant>(env: &mut SchemeEnv<'_>) {
    // Undo in reverse order; X locks are still held so in-place writes are
    // exclusive.
    for u in std::mem::take(&mut env.st.undo).into_iter().rev() {
        let t = &env.db.tables[u.table as usize];
        // SAFETY: X lock held until release_all below.
        let data = unsafe { t.row_mut(u.row) };
        data.copy_from_slice(&u.image[..data.len()]);
        env.pool.free(u.image);
    }
    for ins in env.st.inserts.drain(..) {
        if ins.indexed {
            env.db.index_remove(ins.table, ins.key);
        }
    }
    env.st.deletes.clear();
    release_all::<V>(env);
}
