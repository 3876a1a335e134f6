//! Fixed-capacity row arenas.
//!
//! A [`Table`] owns one contiguous allocation of `capacity × row_size`
//! bytes. Row slots are handed out by a lock-free bump counter (inserts
//! never move existing rows, so `RowIdx` values stay stable — the per-tuple
//! concurrency-control metadata in `abyss-core` is keyed by them).
//!
//! # Safety model
//!
//! Row payloads are accessed through raw pointers with *no* internal
//! synchronization; exclusion is the concurrency-control scheme's job —
//! exactly as in the paper's DBMS, where tuple data is protected by the
//! scheme under test, not by the storage layer. The unsafe surface is
//! confined to [`Table::row`] / [`Table::row_mut`], whose contracts state
//! the CC obligation.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use abyss_common::{DbError, RowIdx};
use parking_lot::Mutex;

use crate::catalog::Schema;

/// Arenas at least this large are parked when their table drops. The
/// global allocator maps anything past its 32 MiB mmap ceiling straight
/// from the kernel and unmaps it on free, so every such arena is faulted
/// in page by page on first touch — on the CI guest that costs more than
/// loading the rows (≈40 ms vs ≈15 ms per 100 MB). Smaller arenas the
/// allocator recycles by itself.
const MIN_SPARE_BYTES: usize = 32 << 20;
/// Parked arenas kept at most (oldest evicted first).
const MAX_SPARES: usize = 4;

/// A parked arena and the length of its allocated-row prefix — the only
/// bytes that can be non-zero (and, for a table with insert headroom,
/// the only pages ever faulted in; re-zeroing past it would touch the
/// rest).
type SpareArena = (Box<[UnsafeCell<u8>]>, usize);

/// Arenas of dropped tables, already faulted in, waiting for the next
/// table of the same size — a process that builds databases back to back
/// (every benchmark and test binary) pays for the pages once. The same
/// idea as the mempool's node arenas, one level up.
static SPARE_ARENAS: Mutex<Vec<SpareArena>> = Mutex::new(Vec::new());

/// A zeroed arena of `bytes` bytes: a parked one when the size matches,
/// else a fresh allocation.
fn zeroed_arena(bytes: usize) -> Box<[UnsafeCell<u8>]> {
    let parked = {
        let mut spares = SPARE_ARENAS.lock();
        spares
            .iter()
            .position(|(a, _)| a.len() == bytes)
            .map(|i| spares.remove(i))
    };
    if let Some((mut arena, used)) = parked {
        // UnsafeCell<u8> is repr-transparent over u8.
        // SAFETY: `arena` is an exclusively owned allocation of at least
        // `used` bytes (`used` was a row-prefix length of this arena).
        unsafe { std::ptr::write_bytes(arena.as_mut_ptr().cast::<u8>(), 0, used) };
        return arena;
    }
    // A zeroed Vec (the allocator hands back untouched zero pages).
    let mut v = Vec::with_capacity(bytes);
    v.resize_with(bytes, || UnsafeCell::new(0));
    v.into_boxed_slice()
}

/// A fixed-capacity, row-oriented in-memory table.
pub struct Table {
    schema: Schema,
    capacity: u64,
    row_size: usize,
    next_slot: AtomicU64,
    data: Box<[UnsafeCell<u8>]>,
}

// SAFETY: concurrent access to row bytes is mediated by the concurrency
// control layer above (see module docs); the bump counter is atomic.
unsafe impl Sync for Table {}
unsafe impl Send for Table {}

impl Table {
    /// Allocate an arena for `capacity` rows of `schema`.
    pub fn new(schema: Schema, capacity: u64) -> Self {
        let row_size = schema.row_size();
        Self {
            schema,
            capacity,
            row_size,
            next_slot: AtomicU64::new(0),
            data: zeroed_arena((capacity as usize) * row_size),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Bytes per row.
    pub fn row_size(&self) -> usize {
        self.row_size
    }

    /// Maximum number of rows.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Rows allocated so far.
    pub fn len(&self) -> u64 {
        self.next_slot.load(Ordering::Acquire).min(self.capacity)
    }

    /// True if no rows are allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve a fresh row slot (lock-free). The slot's bytes are zeroed.
    pub fn allocate_row(&self) -> Result<RowIdx, DbError> {
        let idx = self.next_slot.fetch_add(1, Ordering::AcqRel);
        if idx >= self.capacity {
            // Undo so len() stays meaningful under pressure.
            self.next_slot.fetch_sub(1, Ordering::AcqRel);
            return Err(DbError::SchemaViolation(format!(
                "table capacity exhausted ({} rows)",
                self.capacity
            )));
        }
        Ok(idx)
    }

    #[inline]
    fn check(&self, idx: RowIdx) {
        debug_assert!(
            idx < self.next_slot.load(Ordering::Acquire),
            "row index {idx} beyond allocated rows"
        );
    }

    /// Read-borrow row `idx`.
    ///
    /// # Safety
    /// The caller must guarantee — via the concurrency-control scheme —
    /// that no thread mutates this row for the lifetime of the returned
    /// slice.
    #[inline]
    pub unsafe fn row(&self, idx: RowIdx) -> &[u8] {
        self.check(idx);
        let start = (idx as usize) * self.row_size;
        std::slice::from_raw_parts(self.data[start].get(), self.row_size)
    }

    /// Mutably borrow row `idx`.
    ///
    /// # Safety
    /// The caller must guarantee exclusive access to this row (a held write
    /// lock, a validated OCC write phase, an owned partition, ...).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, idx: RowIdx) -> &mut [u8] {
        self.check(idx);
        let start = (idx as usize) * self.row_size;
        std::slice::from_raw_parts_mut(self.data[start].get(), self.row_size)
    }

    /// Copy row `idx` into `buf` (the TIMESTAMP/OCC "read a local copy"
    /// path, §5.1).
    ///
    /// # Safety
    /// Same as [`Table::row`].
    #[inline]
    pub unsafe fn copy_row_into(&self, idx: RowIdx, buf: &mut [u8]) {
        let src = self.row(idx);
        buf[..self.row_size].copy_from_slice(src);
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        if self.data.len() >= MIN_SPARE_BYTES {
            let mut spares = SPARE_ARENAS.lock();
            if spares.len() == MAX_SPARES {
                spares.remove(0);
            }
            let used = self.len() as usize * self.row_size;
            spares.push((std::mem::take(&mut self.data), used));
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("rows", &self.len())
            .field("capacity", &self.capacity)
            .field("row_size", &self.row_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Schema;
    use crate::row;

    fn small_table() -> Table {
        Table::new(Schema::key_plus_payload(2, 4), 8)
    }

    #[test]
    fn allocate_until_full() {
        let t = small_table();
        for i in 0..8 {
            assert_eq!(t.allocate_row().unwrap(), i);
        }
        assert!(t.allocate_row().is_err());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn rows_are_zeroed_and_writable() {
        let t = small_table();
        let idx = t.allocate_row().unwrap();
        unsafe {
            assert!(t.row(idx).iter().all(|&b| b == 0));
            let r = t.row_mut(idx);
            row::set_u64(t.schema(), r, 0, 99);
            assert_eq!(row::get_u64(t.schema(), t.row(idx), 0), 99);
        }
    }

    #[test]
    fn recycled_arena_comes_back_zeroed() {
        // Rows of an otherwise unused size, so no sibling test can take or
        // park an arena of the same length.
        let schema = || Schema::key_plus_payload(1, MIN_SPARE_BYTES + 24);
        let t = Table::new(schema(), 2);
        let idx = t.allocate_row().unwrap();
        let (addr, row_len) = {
            let first = unsafe { t.row_mut(idx) };
            first.fill(0xA5);
            (first.as_ptr() as usize, first.len())
        };
        drop(t);
        // Only the allocated prefix was dirtied, and only it is re-zeroed.
        let used = SPARE_ARENAS
            .lock()
            .iter()
            .find(|(a, _)| a.len() == row_len * 2)
            .map(|&(_, used)| used);
        assert_eq!(used, Some(row_len));
        let t = Table::new(schema(), 2);
        for _ in 0..2 {
            let idx = t.allocate_row().unwrap();
            let again = unsafe { t.row(idx) };
            assert!(again.iter().all(|&b| b == 0), "handed out zeroed");
        }
        assert_eq!(
            unsafe { t.row(0) }.as_ptr() as usize,
            addr,
            "the parked arena is reused"
        );
        // Arenas under the threshold are left to the allocator.
        drop(Table::new(Schema::key_plus_payload(1, 8), 8));
        assert!(SPARE_ARENAS
            .lock()
            .iter()
            .all(|(a, used)| a.len() >= MIN_SPARE_BYTES && *used <= a.len()));
    }

    #[test]
    fn copy_row_matches_source() {
        let t = small_table();
        let idx = t.allocate_row().unwrap();
        unsafe {
            let r = t.row_mut(idx);
            r.fill(0x5A);
            let mut buf = vec![0u8; t.row_size()];
            t.copy_row_into(idx, &mut buf);
            assert_eq!(&buf[..], t.row(idx));
        }
    }

    #[test]
    fn concurrent_allocation_is_unique() {
        use std::sync::Arc;
        let t = Arc::new(Table::new(Schema::key_plus_payload(1, 4), 4000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..1000 {
                    got.push(t.allocate_row().unwrap());
                }
                got
            }));
        }
        let mut all: Vec<RowIdx> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "row indexes must be unique");
    }
}
