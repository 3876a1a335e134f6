//! Lock-word encodings.
//!
//! Four single-word protocols cover the per-tuple fast paths:
//!
//! * [`rw`] — a shared/exclusive count word for the 2PL schemes:
//!   bit 63 = writer present, bits 0..32 = reader count. NO_WAIT runs
//!   entirely on CAS against this word (the paper: "no centralized point
//!   of contention").
//! * [`silo`] — a version-plus-lock word for OCC reads and validation:
//!   bit 63 = locked, bits 0..63 = version counter bumped on every
//!   committed write.
//! * [`tictoc`] — a `wts`/`rts` timestamp pair packed under the same lock
//!   bit: bit 63 = locked, bits 48..=62 = `rts − wts` delta, bits 0..=47 =
//!   `wts`. Sharing bit 63 with [`silo`] lets TICTOC reuse OCC's seqlock
//!   copy and canonical-order latch machinery unchanged.
//! * [`to`] — the TIMESTAMP/MVCC tuple header: bit 63 = latch, bit 62 =
//!   "a prewrite is pending", bit 61 = "superseded versions exist", bits
//!   0..=60 = `wts` of the newest committed version. Everything a conflict-free access needs, in the word the
//!   latch CAS already owns.

/// Shared/exclusive reader-writer word.
pub mod rw {
    /// Writer-present bit.
    pub const WRITER: u64 = 1 << 63;
    /// Mask of the reader count.
    pub const READERS: u64 = (1 << 32) - 1;

    /// No holders at all.
    #[inline]
    pub fn is_free(w: u64) -> bool {
        w == 0
    }

    /// A writer holds the word.
    #[inline]
    pub fn has_writer(w: u64) -> bool {
        w & WRITER != 0
    }

    /// Number of readers.
    #[inline]
    pub fn readers(w: u64) -> u64 {
        w & READERS
    }

    /// Word after one more reader (caller checks `!has_writer`).
    #[inline]
    pub fn add_reader(w: u64) -> u64 {
        debug_assert!(!has_writer(w));
        w + 1
    }

    /// Word after one reader leaves.
    #[inline]
    pub fn remove_reader(w: u64) -> u64 {
        debug_assert!(readers(w) > 0);
        w - 1
    }

    /// Can a shared request be granted immediately?
    #[inline]
    pub fn can_read(w: u64) -> bool {
        !has_writer(w)
    }

    /// Can an exclusive request be granted immediately?
    #[inline]
    pub fn can_write(w: u64) -> bool {
        w == 0
    }
}

/// Silo-style version + lock word (OCC).
pub mod silo {
    /// Lock bit.
    pub const LOCKED: u64 = 1 << 63;

    /// Is the word locked?
    #[inline]
    pub fn is_locked(w: u64) -> bool {
        w & LOCKED != 0
    }

    /// The version component.
    #[inline]
    pub fn version(w: u64) -> u64 {
        w & !LOCKED
    }

    /// The word with the lock bit set.
    #[inline]
    pub fn lock(w: u64) -> u64 {
        w | LOCKED
    }

    /// The word after a committed write: version+1, unlocked.
    #[inline]
    pub fn bump_and_unlock(w: u64) -> u64 {
        version(w) + 1
    }

    /// The word unlocked with the version unchanged (validation failure).
    #[inline]
    pub fn unlock(w: u64) -> u64 {
        version(w)
    }
}

/// TicToc-style `wts`/`rts` word (data-driven timestamp OCC).
///
/// A tuple's word encodes the timestamp of its last committed write
/// (`wts`) and the largest timestamp at which it is known to have been
/// *valid* (`rts >= wts`), as `wts` plus a bounded delta:
///
/// ```text
///  63    62..........48  47.............0
/// [lock][  rts − wts   ][      wts      ]
/// ```
///
/// Readers record the whole (unlocked) word; committers validate by
/// comparing the `wts` component and *extend* `rts` with a CAS when their
/// commit timestamp exceeds it — the extension that lets a read stay valid
/// without re-reading. When an extension would overflow the 15-bit delta,
/// `wts` is advanced so `rts` stays exact (under-representing `rts` would
/// let a writer serialize below a committed read — a lost update); the
/// bump can only cause conservative aborts in concurrent readers.
pub mod tictoc {
    pub use super::silo::{is_locked, lock, LOCKED};

    /// Bits of the word holding `wts`.
    pub const WTS_BITS: u32 = 48;
    /// Bits of the word holding the `rts − wts` delta.
    pub const DELTA_BITS: u32 = 15;
    /// Mask of the `wts` component.
    pub const WTS_MASK: u64 = (1 << WTS_BITS) - 1;
    /// Largest representable `rts − wts` delta.
    pub const DELTA_MAX: u64 = (1 << DELTA_BITS) - 1;

    /// The write timestamp (ignores the lock bit).
    #[inline]
    pub fn wts(w: u64) -> u64 {
        w & WTS_MASK
    }

    /// The read timestamp: `wts` plus the packed delta.
    #[inline]
    pub fn rts(w: u64) -> u64 {
        wts(w) + ((w >> WTS_BITS) & DELTA_MAX)
    }

    /// Pack `(wts, rts)` into an unlocked word. On delta overflow `wts` is
    /// advanced (never truncating `rts` — see module docs).
    #[inline]
    pub fn pack(wts: u64, rts: u64) -> u64 {
        debug_assert!(rts >= wts, "rts {rts} < wts {wts}");
        debug_assert!(rts <= WTS_MASK, "rts {rts} overflows {WTS_BITS} bits");
        let (wts, delta) = if rts - wts > DELTA_MAX {
            (rts - DELTA_MAX, DELTA_MAX)
        } else {
            (wts, rts - wts)
        };
        (delta << WTS_BITS) | wts
    }

    /// The word with `rts` extended to at least `to`, preserving the lock
    /// bit. A no-op when the current `rts` already covers `to`.
    #[inline]
    pub fn extend_rts(w: u64, to: u64) -> u64 {
        (w & LOCKED) | pack(wts(w), rts(w).max(to))
    }
}

/// T/O-family tuple header (TIMESTAMP and MVCC).
///
/// ```text
///  63       62        61      60............0
/// [latch][pending][history][      wts       ]
/// ```
///
/// The latch bit is the tuple's spin latch (`crate::meta::RowMeta::to_latch`);
/// `wts` is the timestamp of the newest committed version, whose image
/// lives in the table arena; `pending` says the tuple's lazily allocated
/// `Aux` holds at least one uncommitted prewrite (waiters only ever queue
/// behind a prewrite, so the one flag covers both); `history` (MVCC) says
/// it holds superseded versions. A reader that finds `wts <= ts` and
/// `pending` clear needs nothing but this word and `rts`, and one that
/// finds `wts > ts` with `history` clear knows the tuple postdates it.
pub mod to {
    /// Latch bit.
    pub const LATCH: u64 = 1 << 63;
    /// An uncommitted prewrite is registered in the tuple's `Aux`.
    pub const PENDING: u64 = 1 << 62;
    /// MVCC: superseded versions are parked in the tuple's `Aux`.
    pub const HISTORY: u64 = 1 << 61;
    /// Bits of the word holding `wts`.
    pub const WTS_BITS: u32 = 61;
    /// Mask of the `wts` component — also the largest representable
    /// timestamp (a clock timestamp reaches it after ~25 days of uptime).
    pub const WTS_MASK: u64 = (1 << WTS_BITS) - 1;
    /// `wts` of a deleted tuple: above every allocatable timestamp, so any
    /// access through a stale row reference fails its `ts >= wts` check.
    pub const TOMBSTONE: u64 = WTS_MASK;

    /// The write timestamp (ignores the flag bits).
    #[inline]
    pub fn wts(h: u64) -> u64 {
        h & WTS_MASK
    }

    /// Is a prewrite pending?
    #[inline]
    pub fn is_pending(h: u64) -> bool {
        h & PENDING != 0
    }

    /// Does the tuple have superseded versions?
    #[inline]
    pub fn has_history(h: u64) -> bool {
        h & HISTORY != 0
    }

    /// The header with `wts` replaced, flags preserved.
    #[inline]
    pub fn with_wts(h: u64, wts: u64) -> u64 {
        assert!(wts <= WTS_MASK, "timestamp {wts} overflows {WTS_BITS} bits");
        (h & !WTS_MASK) | wts
    }

    /// The header with the pending flag set or cleared.
    #[inline]
    pub fn with_pending(h: u64, pending: bool) -> u64 {
        if pending {
            h | PENDING
        } else {
            h & !PENDING
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_reader_lifecycle() {
        let mut w = 0u64;
        assert!(rw::is_free(w));
        assert!(rw::can_read(w) && rw::can_write(w));
        w = rw::add_reader(w);
        w = rw::add_reader(w);
        assert_eq!(rw::readers(w), 2);
        assert!(rw::can_read(w));
        assert!(!rw::can_write(w));
        w = rw::remove_reader(w);
        w = rw::remove_reader(w);
        assert!(rw::is_free(w));
    }

    #[test]
    fn rw_writer_excludes() {
        let w = rw::WRITER;
        assert!(rw::has_writer(w));
        assert!(!rw::can_read(w));
        assert!(!rw::can_write(w));
        assert_eq!(rw::readers(w), 0);
    }

    #[test]
    fn tictoc_pack_round_trips() {
        let w = tictoc::pack(100, 130);
        assert_eq!(tictoc::wts(w), 100);
        assert_eq!(tictoc::rts(w), 130);
        assert!(!tictoc::is_locked(w));
        let locked = tictoc::lock(w);
        assert!(tictoc::is_locked(locked));
        assert_eq!(tictoc::wts(locked), 100);
        assert_eq!(tictoc::rts(locked), 130);
    }

    #[test]
    fn tictoc_extend_rts_preserves_wts_and_lock() {
        let w = tictoc::pack(50, 50);
        let e = tictoc::extend_rts(w, 80);
        assert_eq!(tictoc::wts(e), 50);
        assert_eq!(tictoc::rts(e), 80);
        // Extending below the current rts is a no-op.
        assert_eq!(tictoc::extend_rts(e, 60), e);
        // The lock bit survives an extension of a latched word.
        let le = tictoc::extend_rts(tictoc::lock(w), 80);
        assert!(tictoc::is_locked(le));
        assert_eq!(tictoc::rts(le), 80);
    }

    #[test]
    fn tictoc_delta_overflow_bumps_wts_exactly() {
        // rts − wts beyond 15 bits: wts advances, rts stays exact — the
        // "rts overflow forces a wts bump" edge case. The bumped wts must
        // differ from the original (concurrent readers abort, safely).
        let w = tictoc::pack(10, 10);
        let to = 10 + tictoc::DELTA_MAX + 5;
        let e = tictoc::extend_rts(w, to);
        assert_eq!(tictoc::rts(e), to, "rts must never be truncated");
        assert_eq!(tictoc::wts(e), to - tictoc::DELTA_MAX);
        assert_ne!(tictoc::wts(e), tictoc::wts(w));
        // Boundary: a delta of exactly DELTA_MAX still fits without a bump.
        let b = tictoc::extend_rts(w, 10 + tictoc::DELTA_MAX);
        assert_eq!(tictoc::wts(b), 10);
        assert_eq!(tictoc::rts(b), 10 + tictoc::DELTA_MAX);
    }

    #[test]
    fn tictoc_word_never_collides_with_lock_bit() {
        let w = tictoc::pack(tictoc::WTS_MASK, tictoc::WTS_MASK);
        assert!(w < tictoc::LOCKED);
        let full = tictoc::pack(tictoc::WTS_MASK - tictoc::DELTA_MAX, tictoc::WTS_MASK);
        assert!(full < tictoc::LOCKED);
        assert_eq!(tictoc::rts(full), tictoc::WTS_MASK);
    }

    #[test]
    fn silo_lock_preserves_version() {
        let w = 41u64;
        let locked = silo::lock(w);
        assert!(silo::is_locked(locked));
        assert_eq!(silo::version(locked), 41);
        assert_eq!(silo::unlock(locked), 41);
        assert_eq!(silo::bump_and_unlock(locked), 42);
        assert!(!silo::is_locked(silo::bump_and_unlock(locked)));
    }
}
