//! Timestamp allocation (§4.3 of the paper) — real implementations.
//!
//! Four of the paper's five methods are realizable on stock hardware:
//!
//! * **mutex** — a lock around the counter (the naïve baseline);
//! * **atomic** — one `fetch_add`; the canonical choice, but the counter's
//!   cache line ping-pongs between every allocating core;
//! * **batched atomic** — `fetch_add(batch)` with a per-worker cache
//!   (Silo); fewer cache-line transfers, but restarted transactions keep
//!   drawing stale timestamps from the local batch (Fig. 7b's collapse);
//! * **clock** — a per-worker monotonic clock reading concatenated with the
//!   worker id; fully decentralized.
//!
//! The **hardware counter** exists only in the simulator
//! (`abyss-sim::tsalloc`); requesting it here falls back to `atomic`, which
//! is its software-equivalent semantics (a single serialization point)
//! without the single-cycle increment.
//!
//! All methods return strictly increasing timestamps per worker and unique
//! timestamps across workers; `WAIT_DIE`'s age ordering and every T/O rule
//! depend on that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use abyss_common::{CoreId, Padded, Ts, TsMethod};
use parking_lot::Mutex;

/// Bits reserved for the worker id in clock timestamps.
const CLOCK_WORKER_BITS: u32 = 10;
/// Workers representable in a clock timestamp. Worker ids at or beyond
/// this would alias another worker's timestamps (the id is packed into
/// the low `CLOCK_WORKER_BITS` bits), silently breaking the
/// cross-worker uniqueness WAIT_DIE's age ordering and every T/O rule
/// depend on — so [`SharedTs::handle`] rejects them up front.
pub const CLOCK_MAX_WORKERS: u32 = 1 << CLOCK_WORKER_BITS;

/// Shared state of a timestamp allocator; per-worker access goes through
/// [`TsHandle`].
///
/// The mutable counters live on their own cache line ([`Padded`]): the
/// allocator word is the single hottest shared word in every T/O scheme,
/// and an unpadded counter would additionally drag whatever the enum's
/// neighbors are into its coherence storm (the `padding_audit` section of
/// `layout_micro` measures that cost).
#[derive(Debug)]
enum Shared {
    Mutex(Mutex<u64>),
    Atomic(Padded<AtomicU64>),
    Batched {
        counter: Padded<AtomicU64>,
        batch: u64,
    },
    Clock {
        epoch: Instant,
    },
}

/// A timestamp allocator shared by all workers of a database.
#[derive(Debug, Clone)]
pub struct SharedTs {
    inner: Arc<Shared>,
    method: TsMethod,
}

impl SharedTs {
    /// Build an allocator for `method`. [`TsMethod::Hardware`] falls back
    /// to atomic (see module docs).
    pub fn new(method: TsMethod) -> Self {
        let inner = match method {
            TsMethod::Mutex => Shared::Mutex(Mutex::new(0)),
            TsMethod::Atomic | TsMethod::Hardware => Shared::Atomic(Padded::new(AtomicU64::new(0))),
            TsMethod::Batched { batch } => Shared::Batched {
                counter: Padded::new(AtomicU64::new(0)),
                batch: u64::from(batch.max(1)),
            },
            TsMethod::Clock => Shared::Clock {
                epoch: Instant::now(),
            },
        };
        Self {
            inner: Arc::new(inner),
            method,
        }
    }

    /// The configured method (as requested — see
    /// [`SharedTs::effective_method`] for what actually runs).
    pub fn method(&self) -> TsMethod {
        self.method
    }

    /// The method actually executing: [`TsMethod::Hardware`] exists only
    /// in the simulator and silently degrades to [`TsMethod::Atomic`]
    /// here, so stats and benchmark JSON must label runs with *this*, not
    /// [`SharedTs::method`], or the run is misreported.
    pub fn effective_method(&self) -> TsMethod {
        match self.method {
            TsMethod::Hardware => TsMethod::Atomic,
            m => m,
        }
    }

    /// Create the per-worker handle. Each worker must use its own.
    ///
    /// Panics when `worker` cannot be represented in a clock timestamp
    /// ([`CLOCK_MAX_WORKERS`]): packed into `CLOCK_WORKER_BITS` bits
    /// without this check, worker 1024 would silently mint the same
    /// timestamps as worker 0.
    pub fn handle(&self, worker: CoreId) -> TsHandle {
        assert!(
            !matches!(self.method, TsMethod::Clock) || worker < CLOCK_MAX_WORKERS,
            "worker id {worker} does not fit the {CLOCK_WORKER_BITS}-bit clock-timestamp field \
             (max {})",
            CLOCK_MAX_WORKERS - 1
        );
        TsHandle {
            shared: Arc::clone(&self.inner),
            worker,
            batch_next: 0,
            batch_end: 0,
            last: 0,
        }
    }
}

/// Per-worker timestamp source.
#[derive(Debug)]
pub struct TsHandle {
    shared: Arc<Shared>,
    worker: CoreId,
    batch_next: u64,
    batch_end: u64,
    last: Ts,
}

impl TsHandle {
    /// Allocate the next timestamp. Timestamps are non-zero, unique across
    /// workers, and strictly increasing per worker.
    #[inline]
    pub fn alloc(&mut self) -> Ts {
        let ts = match &*self.shared {
            Shared::Mutex(m) => {
                let mut g = m.lock();
                *g += 1;
                *g
            }
            Shared::Atomic(a) => a.fetch_add(1, Ordering::Relaxed) + 1,
            Shared::Batched { counter, batch } => {
                if self.batch_next >= self.batch_end {
                    let start = counter.fetch_add(*batch, Ordering::Relaxed);
                    self.batch_next = start + 1;
                    self.batch_end = start + batch + 1;
                }
                let ts = self.batch_next;
                self.batch_next += 1;
                ts
            }
            Shared::Clock { epoch } => {
                let ns = epoch.elapsed().as_nanos() as u64;
                let ts = (ns << CLOCK_WORKER_BITS) | u64::from(self.worker);
                // Two back-to-back reads can land in the same nanosecond;
                // force per-worker strict monotonicity.
                ts.max(self.last + (1 << CLOCK_WORKER_BITS))
            }
        };
        debug_assert!(ts > self.last, "timestamps must increase per worker");
        self.last = ts;
        ts
    }

    /// Drop any cached batch (used when a fresh, *current* timestamp is
    /// required — e.g. after an abort under the batched method the caller
    /// may still want the paper's behaviour of reusing the batch; this is
    /// the escape hatch the ablation benchmark flips).
    pub fn discard_batch(&mut self) {
        self.batch_next = self.batch_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn check_unique_and_increasing(method: TsMethod) {
        let shared = SharedTs::new(method);
        let mut handles: Vec<_> = (0..4).map(|w| shared.handle(w)).collect();
        let mut all = HashSet::new();
        let mut lasts = [0u64; 4];
        for round in 0..1000 {
            for (w, h) in handles.iter_mut().enumerate() {
                let ts = h.alloc();
                assert!(
                    ts > lasts[w],
                    "worker {w} ts not increasing at round {round}"
                );
                lasts[w] = ts;
                assert!(all.insert(ts), "duplicate ts {ts} ({method:?})");
            }
        }
    }

    #[test]
    fn mutex_unique_increasing() {
        check_unique_and_increasing(TsMethod::Mutex);
    }

    #[test]
    fn atomic_unique_increasing() {
        check_unique_and_increasing(TsMethod::Atomic);
    }

    #[test]
    fn batched_unique_increasing() {
        check_unique_and_increasing(TsMethod::Batched { batch: 8 });
    }

    #[test]
    fn clock_unique_increasing() {
        check_unique_and_increasing(TsMethod::Clock);
    }

    #[test]
    fn batched_hands_out_contiguous_runs() {
        let shared = SharedTs::new(TsMethod::Batched { batch: 4 });
        let mut h = shared.handle(0);
        let first: Vec<Ts> = (0..4).map(|_| h.alloc()).collect();
        assert_eq!(first, vec![1, 2, 3, 4]);
        // Another worker takes the next batch.
        let mut h2 = shared.handle(1);
        assert_eq!(h2.alloc(), 5);
        // First worker refills after its batch is exhausted.
        assert_eq!(h.alloc(), 9);
    }

    #[test]
    fn concurrent_atomic_allocation_is_unique() {
        let shared = SharedTs::new(TsMethod::Atomic);
        let mut joins = Vec::new();
        for w in 0..8 {
            let s = shared.clone();
            joins.push(std::thread::spawn(move || {
                let mut h = s.handle(w);
                (0..10_000).map(|_| h.alloc()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for j in joins {
            for ts in j.join().unwrap() {
                assert!(all.insert(ts), "duplicate {ts}");
            }
        }
        assert_eq!(all.len(), 80_000);
    }

    #[test]
    fn hardware_falls_back_to_atomic() {
        let shared = SharedTs::new(TsMethod::Hardware);
        let mut h = shared.handle(0);
        assert_eq!(h.alloc(), 1);
        assert_eq!(h.alloc(), 2);
    }

    #[test]
    fn hardware_reports_effective_method_as_atomic() {
        let shared = SharedTs::new(TsMethod::Hardware);
        assert_eq!(shared.method(), TsMethod::Hardware);
        assert_eq!(shared.effective_method(), TsMethod::Atomic);
        // Realizable methods report themselves.
        let clock = SharedTs::new(TsMethod::Clock);
        assert_eq!(clock.effective_method(), TsMethod::Clock);
    }

    #[test]
    fn clock_worker_id_boundary() {
        let shared = SharedTs::new(TsMethod::Clock);
        // 1023 is the largest representable worker id...
        let mut h = shared.handle(CLOCK_MAX_WORKERS - 1);
        let ts = h.alloc();
        assert_eq!(ts & u64::from(CLOCK_MAX_WORKERS - 1), 1023);
        // ...and 1024 must be rejected instead of aliasing worker 0.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.handle(CLOCK_MAX_WORKERS)
        }));
        assert!(res.is_err(), "worker 1024 must not alias worker 0");
        // Non-clock methods carry no packed worker id; large ids are fine.
        let atomic = SharedTs::new(TsMethod::Atomic);
        let _ = atomic.handle(CLOCK_MAX_WORKERS);
    }
}
