//! Worker wait/wakeup flags.
//!
//! A worker waits on at most one thing at a time (a tuple lock, a prewrite,
//! a partition grant), so each worker owns one cache-padded flag. Waiters
//! spin with exponential politeness (pure spins, then `spin_loop` hints,
//! then `yield_now` so oversubscribed configurations still make progress)
//! until the flag leaves [`WAITING`] or a deadline passes.
//!
//! When the thread count exceeds the machine's parallelism — more workers
//! than cores, or service workers plus producer threads — the pure-spin
//! rungs burn exactly the cycles the grantor (or a producer) needs, so the
//! ladder collapses to early yields (see [`ParkTable::set_early_yield`]).
//! Wait-time *accounting* is unaffected: the schemes' `record_wait` seam
//! brackets the whole `wait` call, so breakdown and trace charge the same
//! interval regardless of which ladder ran.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use abyss_common::CoreId;
use abyss_common::Padded;

/// Flag value: not waiting.
pub const IDLE: u32 = 0;
/// Flag value: registered in some queue, waiting for a grant.
pub const WAITING: u32 = 1;
/// Flag value: the wait was granted.
pub const GRANTED: u32 = 2;

/// What ended a wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The grantor set the flag to [`GRANTED`].
    Granted,
    /// The deadline passed first.
    TimedOut,
}

/// Spin-ladder rung: with a core to ourselves, spin 63 iterations between
/// yields (the grant usually lands within a few hundred cycles).
const SPIN_YIELD_EVERY: u32 = 64;
/// Spin-ladder rung under oversubscription: yield (and check the deadline)
/// every other iteration — the grantor is likely descheduled on our core,
/// so pure spinning only delays the wakeup we are waiting for.
const OVERSUB_YIELD_EVERY: u32 = 2;

/// One wakeup flag per worker.
#[derive(Debug)]
pub struct ParkTable {
    flags: Box<[Padded<AtomicU32>]>,
    /// Collapse the spin ladder to early yields: set when the worker count
    /// alone oversubscribes the machine, or by the serving layer when its
    /// producer threads push the total over `available_parallelism`.
    early_yield: AtomicBool,
}

impl ParkTable {
    /// Flags for `workers` workers. The spin ladder collapses to
    /// early-yield automatically when `workers` exceeds the machine's
    /// available parallelism.
    pub fn new(workers: u32) -> Self {
        let mut v = Vec::with_capacity(workers as usize);
        v.resize_with(workers as usize, || Padded::new(AtomicU32::new(IDLE)));
        Self {
            flags: v.into_boxed_slice(),
            early_yield: AtomicBool::new(workers as usize > abyss_common::available_cores()),
        }
    }

    /// Force (or clear) the early-yield ladder. Callers that add threads
    /// beyond the worker pool — the serving layer's producers — use this
    /// when `workers + producers > available_parallelism`.
    pub fn set_early_yield(&self, on: bool) {
        self.early_yield.store(on, Ordering::Relaxed);
    }

    /// True when waits yield early instead of spinning a full rung.
    pub fn early_yield(&self) -> bool {
        self.early_yield.load(Ordering::Relaxed)
    }

    /// Iterations between `yield_now` + deadline checks for the current
    /// oversubscription regime. Loaded once per wait: flipping the flag
    /// mid-wait only affects the next wait.
    #[inline]
    fn yield_every(&self) -> u32 {
        if self.early_yield.load(Ordering::Relaxed) {
            OVERSUB_YIELD_EVERY
        } else {
            SPIN_YIELD_EVERY
        }
    }

    /// Arm `worker`'s flag before inserting it into a wait queue.
    /// Must happen *before* publishing the waiter so a grant cannot race
    /// ahead of the arm.
    #[inline]
    pub fn arm(&self, worker: CoreId) {
        self.flags[worker as usize].store(WAITING, Ordering::Release);
    }

    /// Grant `worker`'s pending wait (called by a releaser that has removed
    /// the waiter from the queue under the tuple latch).
    #[inline]
    pub fn grant(&self, worker: CoreId) {
        self.flags[worker as usize].store(GRANTED, Ordering::Release);
    }

    /// Spin until granted or `deadline`. Returns the outcome; the flag is
    /// reset to [`IDLE`] either way.
    pub fn wait(&self, worker: CoreId, deadline: Instant) -> WaitOutcome {
        let flag = &self.flags[worker as usize];
        let yield_every = self.yield_every();
        let mut spins = 0u32;
        loop {
            match flag.load(Ordering::Acquire) {
                WAITING => {}
                _ => {
                    flag.store(IDLE, Ordering::Relaxed);
                    return WaitOutcome::Granted;
                }
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(yield_every) {
                if Instant::now() >= deadline {
                    return WaitOutcome::TimedOut;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Like [`ParkTable::wait`] but runs `check` every ~`interval`; if
    /// `check` returns true the wait is abandoned with `TimedOut` semantics
    /// left to the caller (used for DL_DETECT's periodic deadlock passes).
    pub fn wait_with_check(
        &self,
        worker: CoreId,
        deadline: Instant,
        interval: Duration,
        mut check: impl FnMut() -> bool,
    ) -> WaitOutcome {
        let flag = &self.flags[worker as usize];
        let yield_every = self.yield_every();
        let mut next_check = Instant::now() + interval;
        let mut spins = 0u32;
        loop {
            match flag.load(Ordering::Acquire) {
                WAITING => {}
                _ => {
                    flag.store(IDLE, Ordering::Relaxed);
                    return WaitOutcome::Granted;
                }
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(yield_every) {
                let now = Instant::now();
                if now >= deadline {
                    return WaitOutcome::TimedOut;
                }
                if now >= next_check {
                    if check() {
                        return WaitOutcome::TimedOut;
                    }
                    next_check = now + interval;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Reset `worker`'s flag (after a timed-out waiter removed itself from
    /// the queue, or when a grant raced the timeout and must be swallowed).
    #[inline]
    pub fn reset(&self, worker: CoreId) {
        self.flags[worker as usize].store(IDLE, Ordering::Release);
    }

    /// Was the flag granted? (Used to disambiguate a timeout race: if the
    /// waiter is no longer in the queue, the grant happened.)
    #[inline]
    pub fn was_granted(&self, worker: CoreId) -> bool {
        self.flags[worker as usize].load(Ordering::Acquire) == GRANTED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grant_wakes_waiter() {
        let pt = Arc::new(ParkTable::new(2));
        pt.arm(0);
        let pt2 = Arc::clone(&pt);
        let h = std::thread::spawn(move || pt2.wait(0, Instant::now() + Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        pt.grant(0);
        assert_eq!(h.join().unwrap(), WaitOutcome::Granted);
    }

    #[test]
    fn timeout_fires() {
        let pt = ParkTable::new(1);
        pt.arm(0);
        let out = pt.wait(0, Instant::now() + Duration::from_millis(5));
        assert_eq!(out, WaitOutcome::TimedOut);
        pt.reset(0);
    }

    #[test]
    fn grant_before_wait_is_not_lost() {
        let pt = ParkTable::new(1);
        pt.arm(0);
        pt.grant(0);
        let out = pt.wait(0, Instant::now() + Duration::from_millis(50));
        assert_eq!(out, WaitOutcome::Granted);
    }

    #[test]
    fn early_yield_engages_on_oversubscription() {
        let cores = abyss_common::available_cores();
        let pt = ParkTable::new((cores + 1) as u32);
        assert!(pt.early_yield(), "workers > cores must collapse the ladder");
        let pt = ParkTable::new(1);
        assert!(!pt.early_yield(), "a single worker never oversubscribes");
        // The serving layer can force it when producers tip the balance.
        pt.set_early_yield(true);
        assert!(pt.early_yield());
        pt.set_early_yield(false);
        assert!(!pt.early_yield());
    }

    #[test]
    fn waits_behave_identically_under_early_yield() {
        // Same grant/timeout semantics on the collapsed ladder.
        let pt = Arc::new(ParkTable::new(1));
        pt.set_early_yield(true);
        pt.arm(0);
        let pt2 = Arc::clone(&pt);
        let h = std::thread::spawn(move || pt2.wait(0, Instant::now() + Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        pt.grant(0);
        assert_eq!(h.join().unwrap(), WaitOutcome::Granted);
        pt.arm(0);
        let out = pt.wait(0, Instant::now() + Duration::from_millis(5));
        assert_eq!(out, WaitOutcome::TimedOut);
        pt.reset(0);
    }

    #[test]
    fn check_callback_can_abandon_wait() {
        let pt = ParkTable::new(1);
        pt.arm(0);
        let mut calls = 0;
        let out = pt.wait_with_check(
            0,
            Instant::now() + Duration::from_secs(5),
            Duration::from_millis(1),
            || {
                calls += 1;
                calls >= 3
            },
        );
        assert_eq!(out, WaitOutcome::TimedOut);
        assert_eq!(calls, 3);
        pt.reset(0);
    }
}
