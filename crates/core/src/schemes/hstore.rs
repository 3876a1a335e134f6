//! H-STORE — timestamp ordering with partition-level locking (§2.2).
//!
//! The database is split into disjoint partitions, each protected by one
//! coarse lock with a timestamp-ordered grant queue. A transaction must
//! name all its partitions up front (§2.2: "this requires the DBMS to know
//! what partitions each individual transaction will access before it
//! begins"), acquires them, then runs with *no per-tuple concurrency
//! control at all* — which is why its per-access overhead is by far the
//! lowest (Fig. 14) and why multi-partition transactions collapse its
//! parallelism (Fig. 15).
//!
//! Two deliberate adaptations, both from §4.3 "Local Partitions":
//!
//! * threads access remote partitions directly through shared memory
//!   rather than shipping queries to a partition-owning engine;
//! * partitions are acquired in sorted partition order, which makes
//!   hold-and-wait cycles impossible while preserving the
//!   oldest-timestamp-first grant discipline within each queue.

use std::time::{Duration, Instant};

use abyss_common::{AbortReason, CcScheme, CoreId, Key, RowIdx, TableId, Ts};
use abyss_storage::Schema;

use super::{CcProtocol, ReadRef, SchemeEnv};
use crate::park::WaitOutcome;
use crate::txn::{DeleteEntry, InsertEntry, UndoEntry};
use crate::worker::TxnError;

/// T/O with partition-level locking (H-Store / Smallbase model).
pub struct HStore;

impl CcProtocol for HStore {
    const SCHEME: CcScheme = CcScheme::HStore;

    /// Sort + deduplicate the declared partition set, then acquire it in
    /// partition order (hold-and-wait cycles impossible, §4.3).
    fn begin(
        env: &mut SchemeEnv<'_>,
        partitions: &[abyss_common::PartId],
    ) -> Result<(), AbortReason> {
        let sorted = {
            let mut p = partitions.to_vec();
            p.sort_unstable();
            p.dedup();
            p
        };
        acquire_partitions(env, &sorted)
    }

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

    /// Partition ownership already serializes the scan: a plain walk.
    fn scan(
        env: &mut SchemeEnv<'_>,
        table: TableId,
        low: Key,
        high: Key,
        f: &mut dyn FnMut(Key, &Schema, &[u8]),
    ) -> Result<usize, TxnError> {
        let sr = env.db.require_ordered(table)?.scan(low, high);
        env.stats.scan_retries += sr.retries;
        let t = &env.db.tables[table as usize];
        for &(k, row) in &sr.entries {
            // SAFETY: the transaction owns every partition it touches.
            let data = unsafe { t.row(row) };
            f(k, t.schema(), data);
        }
        Ok(sr.entries.len())
    }

    fn commit(env: &mut SchemeEnv<'_>) -> Result<(), AbortReason> {
        // WAL commit point: the partitions are still owned.
        env.wal_commit_point_csn();
        commit(env);
        Ok(())
    }

    fn abort(env: &mut SchemeEnv<'_>) {
        abort(env);
    }
}

/// One partition's lock state: a busy flag plus a ts-ordered wait queue.
#[derive(Debug, Default)]
pub struct PartState {
    /// Is the partition currently owned?
    pub busy: bool,
    /// Waiting transactions, sorted by timestamp ascending.
    pub queue: Vec<(Ts, CoreId)>,
}

impl PartState {
    /// Insert keeping ts order (oldest first).
    fn enqueue(&mut self, ts: Ts, worker: CoreId) {
        let pos = self
            .queue
            .iter()
            .position(|&(t, _)| t > ts)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, (ts, worker));
    }
}

/// Acquire every partition in `partitions` (sorted, deduplicated by the
/// workload generator). Called from `begin`.
fn acquire_partitions(env: &mut SchemeEnv<'_>, partitions: &[u32]) -> Result<(), AbortReason> {
    debug_assert!(
        partitions.windows(2).all(|w| w[0] < w[1]),
        "partitions must be sorted+unique"
    );
    for &p in partitions {
        let ts = env.st.ts;
        let slot = &env.db.parts[p as usize];
        let granted = {
            let mut s = slot.lock();
            if !s.busy {
                s.busy = true;
                true
            } else {
                env.db.park.arm(env.worker);
                s.enqueue(ts, env.worker);
                false
            }
        };
        if !granted {
            let started = Instant::now();
            let deadline = started + Duration::from_micros(env.db.cfg.wait_cap_us);
            let out = env.db.park.wait(env.worker, deadline);
            env.record_wait(started);
            if out == WaitOutcome::TimedOut {
                let mut s = slot.lock();
                let pos = s.queue.iter().position(|&(_, w)| w == env.worker);
                if let Some(i) = pos {
                    s.queue.remove(i);
                    drop(s);
                    env.db.park.reset(env.worker);
                    release_partitions(env);
                    return Err(AbortReason::WaitTimeout);
                }
                // Grant raced the timeout; we own the partition.
                drop(s);
                env.db.park.reset(env.worker);
            }
        }
        env.st.parts.push(p);
    }
    Ok(())
}

/// Release held partitions, granting each queue's oldest waiter.
fn release_partitions(env: &mut SchemeEnv<'_>) {
    for p in std::mem::take(&mut env.st.parts) {
        let mut s = env.db.parts[p as usize].lock();
        if s.queue.is_empty() {
            s.busy = false;
        } else {
            let (_, worker) = s.queue.remove(0);
            // busy stays true: ownership transfers to the woken waiter.
            env.db.park.grant(worker);
        }
    }
}

/// Read in place: the owned partition is exclusive.
fn read(env: &mut SchemeEnv<'_>, table: TableId, row: RowIdx) -> Result<ReadRef, AbortReason> {
    let t = &env.db.tables[table as usize];
    // SAFETY: the transaction owns every partition it touches.
    let data = unsafe { t.row(row) };
    Ok(ReadRef::InPlace {
        ptr: data.as_ptr(),
        len: data.len(),
    })
}

/// Write in place with a before-image (user aborts still roll back).
fn write(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    row: RowIdx,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    let t = &env.db.tables[table as usize];
    if !env.st.undo.iter().any(|u| u.table == table && u.row == row) {
        // Uninit is safe: `copy_row_into` fills the full row prefix and
        // the abort path reads exactly that prefix.
        let mut image = env.pool.alloc_uninit(t.row_size());
        // SAFETY: owned partition.
        unsafe { t.copy_row_into(row, &mut image) };
        env.st.undo.push(UndoEntry { table, row, image });
    }
    // SAFETY: owned partition.
    let data = unsafe { t.row_mut(row) };
    f(t.schema(), data);
    Ok(())
}

/// Insert immediately; the partition lock covers visibility.
fn insert(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    f: impl FnOnce(&Schema, &mut [u8]),
) -> Result<(), AbortReason> {
    let t = &env.db.tables[table as usize];
    let row = t.allocate_row().map_err(|_| AbortReason::LockConflict)?;
    // SAFETY: fresh unindexed row in an owned partition.
    let data = unsafe { t.row_mut(row) };
    f(t.schema(), data);
    if env.db.index_insert(table, key, row).is_err() {
        return Err(AbortReason::LockConflict);
    }
    env.st.inserts.push(InsertEntry {
        table,
        key,
        row: Some(row),
        data: None,
        indexed: true,
    });
    Ok(())
}

/// Delete immediately (owned partitions are exclusive); abort re-publishes
/// the index entries. Deleting a key this transaction itself inserted
/// instead cancels the insert — the abort path must not re-publish a row
/// born in the same (aborted) transaction.
fn delete(
    env: &mut SchemeEnv<'_>,
    table: TableId,
    key: Key,
    row: RowIdx,
) -> Result<(), AbortReason> {
    env.db.index_remove(table, key);
    if let Some(ins) = env
        .st
        .inserts
        .iter_mut()
        .find(|i| i.table == table && i.key == key && i.indexed)
    {
        ins.indexed = false; // withdrawn now; nothing to undo on abort
        return Ok(());
    }
    env.st.deletes.push(DeleteEntry {
        table,
        key,
        row,
        applied: true,
    });
    Ok(())
}

/// Commit: just hand the partitions to the next transactions in line.
fn commit(env: &mut SchemeEnv<'_>) {
    release_partitions(env);
}

/// Abort (user aborts only — H-STORE has no scheduler conflicts): restore
/// before-images, unpublish inserts, release partitions.
fn abort(env: &mut SchemeEnv<'_>) {
    for u in std::mem::take(&mut env.st.undo).into_iter().rev() {
        let t = &env.db.tables[u.table as usize];
        // SAFETY: partitions still owned.
        let data = unsafe { t.row_mut(u.row) };
        data.copy_from_slice(&u.image[..data.len()]);
        env.pool.free(u.image);
    }
    for ins in env.st.inserts.drain(..) {
        if ins.indexed {
            env.db.index_remove(ins.table, ins.key);
        }
    }
    for d in env.st.deletes.drain(..) {
        if d.applied {
            let _ = env.db.index_insert(d.table, d.key, d.row);
        }
    }
    release_partitions(env);
}
