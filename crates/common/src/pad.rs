//! Cache-line padding newtypes for contended words.
//!
//! CCBench's central finding is that concurrency-control conclusions move
//! when the *environment* moves: whether a hot word shares its cache line
//! with a neighbor can swing a protocol's throughput more than the
//! protocol choice itself. This module gives the repo exactly one place
//! that decision is made. [`Padded<T>`] aligns `T` to its own (pair of)
//! cache line(s); [`Unpadded<T>`] is a `repr(transparent)` control with
//! the identical API, so any data structure — and in particular the
//! padding-audit microbenchmarks in `layout_micro` — can be written
//! once, generic over [`PadWrap`], and compiled against both layouts.
//!
//! 128-byte alignment (two lines on x86_64, one on Apple/ARM big cores)
//! defeats the adjacent-line prefetcher that otherwise drags a neighbor
//! line into the coherence storm; this matches crossbeam's choice.
//!
//! What gets padded (and what deliberately does not):
//!
//! * **per-worker / global slots** — epoch slots, waits-for heads,
//!   park-table flags, the shared-timestamp allocator word, partition
//!   controllers: one instance per worker (or one total), so the memory
//!   cost is bounded and every one of them is padded;
//! * **per-row words** — the 2PL/OCC lockword in `RowMeta` is *not*
//!   padded: at 10M rows, padding would multiply table metadata by ~8×
//!   and evict the rows the lock protects. The padding audit measures
//!   what that decision costs on a synthetic hot-row array instead.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Uniform wrapper surface over [`Padded`] and [`Unpadded`], so a
/// benchmark (or a data structure under audit) can be generic over the
/// layout decision.
pub trait PadWrap<T>: Default + Sync + Send
where
    T: Default + Sync + Send,
{
    /// Wrap a value.
    fn wrap(value: T) -> Self;
    /// Borrow the wrapped value.
    fn get(&self) -> &T;
    /// The wrapper's label in audit output.
    const LABEL: &'static str;
}

/// `T`, alone on its own cache line(s).
///
/// The repo-wide padding newtype (see the [module docs](self)): every
/// contended per-worker or global word in `abyss-core` is held in one of
/// these.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct Padded<T> {
    value: T,
}

impl<T> Padded<T> {
    /// Wrap `value` on its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Padded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Padded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Padded").field(&self.value).finish()
    }
}

impl<T> From<T> for Padded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: Default + Sync + Send> PadWrap<T> for Padded<T> {
    fn wrap(value: T) -> Self {
        Self::new(value)
    }
    fn get(&self) -> &T {
        &self.value
    }
    const LABEL: &'static str = "padded";
}

/// The compile-time control: `T` with no alignment change at all.
///
/// Layout-identical to a bare `T` (`repr(transparent)`), so an array of
/// `Unpadded<AtomicU64>` packs 16 words per 128-byte line — the exact
/// false-sharing regime the audit quantifies.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Unpadded<T> {
    value: T,
}

impl<T> Unpadded<T> {
    /// Wrap `value` with no layout change.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for Unpadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Unpadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Unpadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Unpadded").field(&self.value).finish()
    }
}

impl<T> From<T> for Unpadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: Default + Sync + Send> PadWrap<T> for Unpadded<T> {
    fn wrap(value: T) -> Self {
        Self::new(value)
    }
    fn get(&self) -> &T {
        &self.value
    }
    const LABEL: &'static str = "unpadded";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_occupies_full_lines() {
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 128);
        assert_eq!(std::mem::size_of::<Padded<AtomicU64>>(), 128);
        // An array of padded words puts every element on its own line.
        assert_eq!(std::mem::size_of::<[Padded<AtomicU64>; 4]>(), 512);
    }

    #[test]
    fn unpadded_is_transparent() {
        assert_eq!(
            std::mem::size_of::<Unpadded<AtomicU64>>(),
            std::mem::size_of::<AtomicU64>()
        );
        assert_eq!(
            std::mem::align_of::<Unpadded<AtomicU64>>(),
            std::mem::align_of::<AtomicU64>()
        );
    }

    #[test]
    fn wrappers_share_one_api() {
        fn bump<W: PadWrap<AtomicU64>>() -> u64 {
            let w = W::wrap(AtomicU64::new(41));
            w.get().fetch_add(1, Ordering::Relaxed);
            w.get().load(Ordering::Relaxed)
        }
        assert_eq!(bump::<Padded<AtomicU64>>(), 42);
        assert_eq!(bump::<Unpadded<AtomicU64>>(), 42);
        assert_eq!(Padded::<AtomicU64>::LABEL, "padded");
        assert_eq!(Unpadded::<AtomicU64>::LABEL, "unpadded");
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = Padded::new(7u64);
        *p += 1;
        assert_eq!(*p, 8);
        assert_eq!(p.into_inner(), 8);
        let mut u = Unpadded::new(7u64);
        *u += 1;
        assert_eq!(u.into_inner(), 8);
    }
}
