//! Per-tuple concurrency-control metadata.
//!
//! The paper's §4.1 design: "instead of having a centralized lock table or
//! timestamp manager, we implemented these data structures in a per-tuple
//! fashion where each transaction only latches the tuples that it needs."
//! [`RowMeta`] is that per-tuple record: one atomic word for the
//! conflict-free fast paths (NO_WAIT's reader/writer counts, OCC's
//! version+lock, the T/O family's latch + `wts` header) and the T/O `rts`,
//! plus a lazily-allocated, latch-protected [`Aux`] holding whatever
//! richer state the active scheme needs (2PL wait queues; T/O prewrites,
//! parked readers and MVCC's superseded versions).
//!
//! A database runs exactly one scheme, so each row's `Aux` only ever takes
//! one variant; the accessors initialize it on first use — for the T/O
//! family that is the tuple's first *prewrite*, never a read.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use abyss_common::{CoreId, Ts, TxnId};
use abyss_storage::mempool::PoolBlock;
use parking_lot::{MappedMutexGuard, Mutex, MutexGuard};

use crate::lockword::to;

/// Lock mode for the 2PL schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Two modes are compatible iff both are shared.
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Shared && other == LockMode::Shared
    }
}

/// A transaction waiting in a tuple's lock queue.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    /// Waiting transaction.
    pub txn: TxnId,
    /// Its worker (for the wakeup flag).
    pub worker: CoreId,
    /// Requested mode.
    pub mode: LockMode,
    /// Its timestamp (WAIT_DIE ordering; 0 under DL_DETECT).
    pub ts: Ts,
    /// True if the waiter already holds the lock in `Shared` mode and is
    /// waiting to upgrade to `Exclusive`.
    pub upgrade: bool,
}

/// A transaction currently holding a tuple lock.
#[derive(Debug, Clone, Copy)]
pub struct Owner {
    /// Holding transaction.
    pub txn: TxnId,
    /// Held mode.
    pub mode: LockMode,
    /// Its timestamp (WAIT_DIE age comparisons; 0 under DL_DETECT).
    pub ts: Ts,
}

/// 2PL per-tuple lock state (DL_DETECT and WAIT_DIE).
#[derive(Debug, Default)]
pub struct LockQueue {
    /// Current holders. Either any number of `Shared` entries or exactly
    /// one `Exclusive` entry.
    pub owners: Vec<Owner>,
    /// Waiting requests. DL_DETECT: FIFO. WAIT_DIE: sorted by `ts`
    /// ascending (oldest first).
    pub waiters: VecDeque<Waiter>,
}

impl LockQueue {
    /// Is `mode` compatible with every current owner, ignoring `me` (for
    /// upgrades)?
    pub fn compatible_with_owners(&self, mode: LockMode, me: TxnId) -> bool {
        self.owners
            .iter()
            .all(|o| o.txn == me || o.mode.compatible(mode))
    }

    /// Owners that conflict with `mode` (excluding `me`).
    pub fn conflicting_owners<'a>(
        &'a self,
        mode: LockMode,
        me: TxnId,
    ) -> impl Iterator<Item = &'a Owner> + 'a {
        self.owners
            .iter()
            .filter(move |o| o.txn != me && !o.mode.compatible(mode))
    }

    /// Remove `txn` from the owner list. Returns true if it was an owner.
    pub fn remove_owner(&mut self, txn: TxnId) -> bool {
        let before = self.owners.len();
        self.owners.retain(|o| o.txn != txn);
        self.owners.len() != before
    }

    /// Remove `txn` from the wait queue (timeout / die path).
    pub fn remove_waiter(&mut self, txn: TxnId) -> bool {
        let before = self.waiters.len();
        self.waiters.retain(|w| w.txn != txn);
        self.waiters.len() != before
    }
}

/// A superseded MVCC version. The newest committed version is the table
/// arena row itself; committing over it moves the old image here.
#[derive(Debug)]
pub struct OldVersion {
    /// Write timestamp of the creating transaction.
    pub wts: Ts,
    /// The version's row image (a recycled mempool block).
    pub data: PoolBlock,
}

/// T/O-family (TIMESTAMP and MVCC) per-tuple state that does not fit the
/// header word: allocated on the tuple's first prewrite and kept, so a
/// hot tuple's vectors stop allocating.
#[derive(Debug, Default)]
pub struct ToState {
    /// Uncommitted prewrites `(ts, txn)`; non-empty exactly while the
    /// header's pending flag is set ([`ToLatch`] edits both together).
    prewrites: Vec<(Ts, TxnId)>,
    /// Workers parked behind a pending prewrite (all woken whenever one
    /// resolves, so never non-empty without a prewrite).
    waiters: Vec<CoreId>,
    /// MVCC: superseded versions, oldest → newest, `wts` strictly
    /// increasing and all below the header's ([`ToLatch::supersede`]).
    history: VecDeque<OldVersion>,
}

impl ToState {
    /// Is a prewrite of another transaction pending strictly inside
    /// `(after, before)`?
    pub fn pending_between(&self, after: Ts, before: Ts, me: TxnId) -> bool {
        self.prewrites
            .iter()
            .any(|&(p, txn)| p > after && p < before && txn != me)
    }

    /// The newest superseded version with `wts <= ts`.
    pub fn visible_old(&self, ts: Ts) -> Option<&OldVersion> {
        self.history.iter().rev().find(|v| v.wts <= ts)
    }
}

/// Scheme-specific per-tuple state. One variant per database lifetime.
#[derive(Debug)]
pub enum Aux {
    /// 2PL queue (DL_DETECT / WAIT_DIE).
    Lock(LockQueue),
    /// T/O prewrites, waiters and MVCC history (TIMESTAMP / MVCC).
    To(ToState),
}

/// Per-tuple concurrency-control metadata (see module docs). Half a cache
/// line, aligned so no tuple's metadata straddles two.
#[derive(Debug)]
#[repr(align(32))]
pub struct RowMeta {
    /// Lock-free word: `lockword::rw` for NO_WAIT, `lockword::silo` for
    /// OCC's version counter, `lockword::tictoc` for TICTOC, the
    /// `lockword::to` header for TIMESTAMP/MVCC, and the epoch-tagged TID
    /// word for SILO (layout in [`crate::epoch`]: bit 63 = lock, bits
    /// 40..=62 = commit epoch, bits 0..=39 = per-epoch sequence).
    pub word: AtomicU64,
    /// T/O family: largest timestamp that read the newest version. Only
    /// touched under the header latch.
    rts: AtomicU64,
    aux: Mutex<Option<Box<Aux>>>,
}

impl Default for RowMeta {
    fn default() -> Self {
        Self {
            word: AtomicU64::new(0),
            rts: AtomicU64::new(0),
            aux: Mutex::new(None),
        }
    }
}

impl RowMeta {
    /// SILO: the tuple's current TID word (lock bit masked off). Loads with
    /// acquire ordering so the caller observes the row image the TID tags.
    #[inline]
    pub fn tid(&self) -> u64 {
        crate::lockword::silo::version(self.word.load(Ordering::Acquire))
    }

    /// Latch the tuple and get its 2PL queue, initializing it on first use.
    pub fn lock_queue(&self) -> MappedMutexGuard<'_, LockQueue> {
        MutexGuard::map(self.aux.lock(), |slot| {
            let aux = slot.get_or_insert_with(|| Box::new(Aux::Lock(LockQueue::default())));
            match aux.as_mut() {
                Aux::Lock(q) => q,
                other => unreachable!("scheme mismatch: expected Lock, found {other:?}"),
            }
        })
    }

    /// Spin-latch the tuple's T/O header. The arena row, `rts` and the
    /// tuple's [`ToState`] are only read or written while this is held.
    #[inline]
    pub fn to_latch(&self) -> ToLatch<'_> {
        let mut spins = 0u32;
        loop {
            let h = self.word.load(Ordering::Relaxed);
            // Acquire pairs with the Release store in `ToLatch::drop`.
            if h & to::LATCH == 0
                && self
                    .word
                    .compare_exchange_weak(h, h | to::LATCH, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return ToLatch {
                    meta: self,
                    head: h,
                };
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Is the tuple's `Aux` allocated? (Tests pin which accesses need it.)
    pub fn has_aux(&self) -> bool {
        self.aux.lock().is_some()
    }
}

/// A held T/O header latch ([`RowMeta::to_latch`]). Header edits are
/// staged here and published by the unlatching store on drop.
#[derive(Debug)]
pub struct ToLatch<'a> {
    meta: &'a RowMeta,
    /// The header to publish on unlatch (latch bit clear).
    head: u64,
}

impl<'a> ToLatch<'a> {
    /// `wts` of the newest committed version ([`to::TOMBSTONE`] once
    /// deleted).
    #[inline]
    pub fn wts(&self) -> Ts {
        to::wts(self.head)
    }

    /// Is an uncommitted prewrite registered in the tuple's [`ToState`]?
    #[inline]
    pub fn is_pending(&self) -> bool {
        to::is_pending(self.head)
    }

    /// MVCC: does the tuple's [`ToState`] hold superseded versions?
    #[inline]
    pub fn has_history(&self) -> bool {
        to::has_history(self.head)
    }

    /// Largest timestamp that read the newest version.
    #[inline]
    pub fn rts(&self) -> Ts {
        self.meta.rts.load(Ordering::Relaxed)
    }

    /// Record a read of the newest version at `ts`.
    #[inline]
    pub fn bump_rts(&self, ts: Ts) {
        if ts > self.rts() {
            self.meta.rts.store(ts, Ordering::Relaxed);
        }
    }

    /// Stage a new `wts` (a committed install, or [`to::TOMBSTONE`]).
    #[inline]
    pub fn set_wts(&mut self, wts: Ts) {
        self.head = to::with_wts(self.head, wts);
    }

    /// The tuple's slow-path state, allocated on first use.
    pub fn state(&self) -> MappedMutexGuard<'a, ToState> {
        MutexGuard::map(self.meta.aux.lock(), |slot| {
            let aux = slot.get_or_insert_with(|| Box::new(Aux::To(ToState::default())));
            match aux.as_mut() {
                Aux::To(s) => s,
                other => unreachable!("scheme mismatch: expected To, found {other:?}"),
            }
        })
    }

    /// Register `txn`'s prewrite at `ts`.
    pub fn add_prewrite(&mut self, ts: Ts, txn: TxnId) {
        self.state().prewrites.push((ts, txn));
        self.head = to::with_pending(self.head, true);
    }

    /// Withdraw every prewrite of `txn` and hand each parked worker to
    /// `wake` (they re-check the prewrite set).
    pub fn resolve_prewrites(&mut self, txn: TxnId, wake: impl FnMut(CoreId)) {
        let mut s = self.state();
        s.prewrites.retain(|&(_, t)| t != txn);
        s.waiters.drain(..).for_each(wake);
        self.head = to::with_pending(self.head, !s.prewrites.is_empty());
    }

    /// MVCC: make `ts` the newest version's `wts` and park the image it
    /// supersedes, tagged with the old `wts`, in the history. At most
    /// `keep` superseded versions are retained: once full, the oldest
    /// entry's block is evicted and handed to `old_image`, which returns
    /// the block holding the superseded image (normally that same slot,
    /// refilled — so a full history stops drawing on the pool).
    pub fn supersede(
        &mut self,
        ts: Ts,
        keep: usize,
        old_image: impl FnOnce(Option<PoolBlock>) -> PoolBlock,
    ) {
        debug_assert!(self.wts() < ts, "versions must stay ordered");
        let mut s = self.state();
        let evicted = if s.history.len() >= keep {
            s.history.pop_front().map(|v| v.data)
        } else {
            None
        };
        s.history.push_back(OldVersion {
            wts: self.wts(),
            data: old_image(evicted),
        });
        self.head = to::with_wts(self.head, ts) | to::HISTORY;
    }

    /// Queue `worker` behind the pending prewrites.
    pub fn add_waiter(&self, worker: CoreId) {
        self.state().waiters.push(worker);
    }

    /// Take `worker` back out of the queue (its wait timed out).
    pub fn remove_waiter(&self, worker: CoreId) {
        self.state().waiters.retain(|&w| w != worker);
    }
}

impl Drop for ToLatch<'_> {
    #[inline]
    fn drop(&mut self) {
        self.meta.word.store(self.head, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_mode_compatibility() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(!LockMode::Shared.compatible(LockMode::Exclusive));
        assert!(!LockMode::Exclusive.compatible(LockMode::Shared));
        assert!(!LockMode::Exclusive.compatible(LockMode::Exclusive));
    }

    #[test]
    fn queue_owner_management() {
        let mut q = LockQueue::default();
        q.owners.push(Owner {
            txn: 1,
            mode: LockMode::Shared,
            ts: 10,
        });
        q.owners.push(Owner {
            txn: 2,
            mode: LockMode::Shared,
            ts: 20,
        });
        assert!(q.compatible_with_owners(LockMode::Shared, 99));
        assert!(!q.compatible_with_owners(LockMode::Exclusive, 99));
        // ...but an upgrade by the sole remaining reader is compatible.
        assert!(q.remove_owner(2));
        assert!(q.compatible_with_owners(LockMode::Exclusive, 1));
        let conflicting: Vec<TxnId> = q
            .conflicting_owners(LockMode::Exclusive, 99)
            .map(|o| o.txn)
            .collect();
        assert_eq!(conflicting, vec![1]);
    }

    #[test]
    fn to_state_pending_and_visibility() {
        let mut pool = abyss_storage::MemPool::new();
        let mut s = ToState::default();
        s.prewrites.push((10, 1));
        s.prewrites.push((5, 2));
        // TIMESTAMP's "smaller prewrite pending" is the (0, ts) window.
        assert!(s.pending_between(0, 8, 99));
        assert!(!s.pending_between(0, 3, 99));
        // Own prewrites never block their owner.
        assert!(!s.pending_between(0, 8, 2));
        // MVCC's windows: between the visible version and the reader,
        // and above a writer.
        assert!(s.pending_between(5, 11, 99));
        assert!(!s.pending_between(5, 10, 99), "bounds are exclusive");
        assert!(s.pending_between(8, Ts::MAX, 99));
        for wts in [0u64, 5, 9] {
            s.history.push_back(OldVersion {
                wts,
                data: pool.alloc(8),
            });
        }
        assert_eq!(s.visible_old(4).map(|v| v.wts), Some(0));
        assert_eq!(s.visible_old(5).map(|v| v.wts), Some(5));
        assert_eq!(s.visible_old(100).map(|v| v.wts), Some(9));
        s.history.pop_front();
        assert!(s.visible_old(4).is_none(), "evicted versions are gone");
    }

    #[test]
    fn row_meta_initializes_once() {
        let m = RowMeta::default();
        {
            let mut q = m.lock_queue();
            q.owners.push(Owner {
                txn: 7,
                mode: LockMode::Exclusive,
                ts: 0,
            });
        }
        let q = m.lock_queue();
        assert_eq!(q.owners.len(), 1);
    }

    #[test]
    fn row_meta_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<RowMeta>(), 32);
        assert_eq!(std::mem::align_of::<RowMeta>(), 32);
    }

    #[test]
    fn to_latch_publishes_staged_header_and_allocates_aux_lazily() {
        let m = RowMeta::default();
        {
            let l = m.to_latch();
            assert_eq!((l.wts(), l.rts(), l.is_pending()), (0, 0, false));
            assert_ne!(m.word.load(Ordering::Relaxed) & to::LATCH, 0);
            l.bump_rts(7);
            l.bump_rts(3);
            assert_eq!(l.rts(), 7, "rts only moves forward");
        }
        assert_eq!(m.word.load(Ordering::Relaxed), 0, "drop unlatches");
        assert!(!m.has_aux(), "header-only accesses never allocate Aux");
        {
            let mut l = m.to_latch();
            l.add_prewrite(9, 1);
            l.add_prewrite(9, 1);
            l.add_prewrite(12, 2);
            l.add_waiter(5);
            l.set_wts(9);
            l.bump_rts(9);
        }
        assert_eq!(m.word.load(Ordering::Relaxed), to::PENDING | 9);
        assert!(m.has_aux());
        let mut l = m.to_latch();
        assert_eq!((l.wts(), l.rts(), l.is_pending()), (9, 9, true));
        // Resolving one transaction wakes every waiter but leaves the
        // flag up while another's prewrite remains.
        let mut woken = Vec::new();
        l.resolve_prewrites(1, |w| woken.push(w));
        assert_eq!(woken, vec![5]);
        assert!(l.is_pending());
        l.resolve_prewrites(2, |_| unreachable!("no waiter left"));
        assert!(!l.is_pending());
    }
}
