//! Transaction identifiers and per-transaction state.

use abyss_common::{CoreId, Key, RowIdx, TableId, Ts, TxnId};
use abyss_storage::btree::LeafId;
use abyss_storage::mempool::PoolBlock;

use crate::meta::LockMode;

/// Pseudo row index addressing a table's "+∞ key" lock anchor
/// (`Database::row_meta`). 2PL scans S-lock it when a range
/// has no successor; inserters of a new maximum key X-lock it — next-key
/// locking's representation of the unbounded tail gap.
pub const GAP_ROW: RowIdx = RowIdx::MAX;

/// Bits of a [`TxnId`] reserved for the worker id.
pub const WORKER_BITS: u32 = 10;
/// Maximum workers an engine instance supports (txn-id encoding limit —
/// matches the paper's 1024-core ceiling).
pub const MAX_WORKERS: usize = 1 << WORKER_BITS;

/// Compose a transaction id from a worker and its local sequence number.
#[inline]
pub fn make_txn_id(worker: CoreId, seq: u64) -> TxnId {
    (seq << WORKER_BITS) | u64::from(worker)
}

/// The worker encoded in a transaction id.
#[inline]
pub fn worker_of(txn: TxnId) -> CoreId {
    (txn & (MAX_WORKERS as u64 - 1)) as CoreId
}

/// A lock held by the transaction (2PL schemes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeldLock {
    pub table: TableId,
    pub row: RowIdx,
    pub mode: LockMode,
}

/// Before-image for an in-place write (2PL, H-STORE).
#[derive(Debug)]
pub(crate) struct UndoEntry {
    pub table: TableId,
    pub row: RowIdx,
    pub image: PoolBlock,
}

/// A buffered write (T/O, MVCC, OCC): the private workspace copy that will
/// be installed at commit.
#[derive(Debug)]
pub(crate) struct WriteEntry {
    pub table: TableId,
    pub row: RowIdx,
    pub data: PoolBlock,
}

/// A read-set entry (OCC): the version observed at read time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadEntry {
    pub table: TableId,
    pub row: RowIdx,
    pub version: u64,
}

/// A local read copy (TIMESTAMP/MVCC/OCC serve reads from these).
#[derive(Debug)]
pub(crate) struct ReadCopy {
    /// Provenance, kept for debugging dumps.
    #[allow(dead_code)]
    pub table: TableId,
    #[allow(dead_code)]
    pub row: RowIdx,
    pub data: PoolBlock,
}

/// One leaf observed by a range scan, with the version it was read at.
/// OCC/SILO re-validate these at commit (Silo's node-set validation): a
/// version change means the leaf's key set — including its *gaps* —
/// changed since the scan, so the scan may have missed a phantom.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeSetEntry {
    pub table: TableId,
    pub leaf: LeafId,
    pub version: u64,
}

/// A pending or applied delete.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeleteEntry {
    pub table: TableId,
    pub key: Key,
    pub row: RowIdx,
    /// Whether the index entries are already withdrawn (eager schemes);
    /// abort must re-publish them.
    pub applied: bool,
}

/// One logical redo operation captured as the transaction executes
/// (logging enabled only). `image: Some` is an insert-or-update
/// after-image; `None` is a delete. Entries are deduplicated by
/// `(table, key)` — the latest operation supersedes — so the commit
/// record carries exactly the transaction's net write set.
#[derive(Debug)]
pub(crate) struct RedoEntry {
    pub table: TableId,
    pub key: Key,
    pub image: Option<PoolBlock>,
}

/// A pending or applied insert.
#[derive(Debug)]
pub(crate) struct InsertEntry {
    pub table: TableId,
    pub key: Key,
    /// Row slot, once allocated (2PL/H-STORE allocate eagerly; buffered
    /// schemes at commit). Kept for debugging dumps.
    #[allow(dead_code)]
    pub row: Option<RowIdx>,
    /// Buffered row image (buffered schemes only).
    pub data: Option<PoolBlock>,
    /// Whether the key is visible in the index (needs removal on abort).
    pub indexed: bool,
}

/// All mutable per-transaction state, reset by `begin`.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// Unique id (encodes the worker in the low bits).
    pub txn_id: TxnId,
    /// The scheme timestamp (0 when the scheme needs none).
    pub ts: Ts,
    /// Locks currently held (2PL).
    pub held: Vec<HeldLock>,
    /// Before-images for in-place writes.
    pub undo: Vec<UndoEntry>,
    /// Buffered writes.
    pub wbuf: Vec<WriteEntry>,
    /// OCC read set.
    pub rset: Vec<ReadEntry>,
    /// Local read copies.
    pub rbuf: Vec<ReadCopy>,
    /// Rows on which this transaction holds a T/O or MVCC prewrite.
    pub prewrites: Vec<(TableId, RowIdx)>,
    /// Inserts made by this transaction.
    pub inserts: Vec<InsertEntry>,
    /// Deletes made by this transaction.
    pub deletes: Vec<DeleteEntry>,
    /// Leaves observed by range scans (OCC/SILO phantom validation).
    pub node_set: Vec<NodeSetEntry>,
    /// H-STORE partitions currently held.
    pub parts: Vec<u32>,
    /// Reusable scratch for the OCC/SILO commit lock set (kept across
    /// transactions so the hot commit path never allocates).
    pub lock_scratch: Vec<(TableId, RowIdx)>,
    /// Redo after-images captured for the WAL (logging enabled only).
    pub redo: Vec<RedoEntry>,
    /// The commit epoch for the WAL record, published by the scheme at
    /// its serialization point (0 = not set / logging off).
    pub log_epoch: u64,
    /// The WAL record's serial number: within an epoch, replay applies
    /// records touching the same key in increasing `log_seq` (SILO's
    /// commit TID, a T/O scheme's timestamp, or a commit-window serial
    /// from [`crate::db::Database::wal_commit_point_csn`]).
    pub log_seq: u64,
    /// Tracing: this attempt already emitted its `FirstConflict` event.
    pub traced_conflict: bool,
    /// The read-only fast path is active for this attempt: the caller
    /// promised a statically read-only body (see
    /// `WorkerCtx::run_txn_with_hint`). Writes under this flag are a
    /// caller bug, caught by debug assertions in the worker.
    pub read_only: bool,
}

impl TxnState {
    /// Clear everything for the next transaction, recycling buffers into
    /// `pool`.
    pub fn reset(&mut self, pool: &mut abyss_storage::MemPool) {
        self.txn_id = 0;
        self.ts = 0;
        self.held.clear();
        for u in self.undo.drain(..) {
            pool.free(u.image);
        }
        for w in self.wbuf.drain(..) {
            pool.free(w.data);
        }
        self.rset.clear();
        for r in self.rbuf.drain(..) {
            pool.free(r.data);
        }
        self.prewrites.clear();
        for i in self.inserts.drain(..) {
            if let Some(d) = i.data {
                pool.free(d);
            }
        }
        self.deletes.clear();
        self.node_set.clear();
        self.parts.clear();
        for r in self.redo.drain(..) {
            if let Some(img) = r.image {
                pool.free(img);
            }
        }
        self.log_epoch = 0;
        self.log_seq = 0;
        self.traced_conflict = false;
        self.read_only = false;
    }

    /// Does the transaction already hold `(table, row)` at `mode` or
    /// stronger?
    pub fn holds(&self, table: TableId, row: RowIdx, mode: LockMode) -> bool {
        self.held.iter().any(|h| {
            h.table == table && h.row == row && (h.mode == mode || h.mode == LockMode::Exclusive)
        })
    }

    /// Index into `wbuf` for `(table, row)`, if this transaction already
    /// buffered a write there.
    pub fn wbuf_idx(&self, table: TableId, row: RowIdx) -> Option<usize> {
        self.wbuf
            .iter()
            .position(|w| w.table == table && w.row == row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_round_trips_worker() {
        for worker in [0u32, 1, 9, 1023] {
            for seq in [0u64, 1, 99, 1 << 40] {
                assert_eq!(worker_of(make_txn_id(worker, seq)), worker);
            }
        }
    }

    #[test]
    fn txn_ids_are_unique_across_workers_and_seqs() {
        let a = make_txn_id(1, 5);
        let b = make_txn_id(2, 5);
        let c = make_txn_id(1, 6);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn holds_respects_mode_strength() {
        let mut st = TxnState::default();
        st.held.push(HeldLock {
            table: 0,
            row: 3,
            mode: LockMode::Exclusive,
        });
        st.held.push(HeldLock {
            table: 0,
            row: 4,
            mode: LockMode::Shared,
        });
        assert!(st.holds(0, 3, LockMode::Shared));
        assert!(st.holds(0, 3, LockMode::Exclusive));
        assert!(st.holds(0, 4, LockMode::Shared));
        assert!(!st.holds(0, 4, LockMode::Exclusive));
        assert!(!st.holds(0, 5, LockMode::Shared));
    }

    #[test]
    fn reset_recycles_buffers() {
        let mut pool = abyss_storage::MemPool::new();
        let mut st = TxnState::default();
        st.rbuf.push(ReadCopy {
            table: 0,
            row: 0,
            data: pool.alloc(64),
        });
        st.wbuf.push(WriteEntry {
            table: 0,
            row: 1,
            data: pool.alloc(64),
        });
        let cached_before = pool.stats().cached;
        st.reset(&mut pool);
        assert!(st.rbuf.is_empty() && st.wbuf.is_empty());
        assert_eq!(pool.stats().cached, cached_before + 2);
    }
}
