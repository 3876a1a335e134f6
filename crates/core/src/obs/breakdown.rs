//! Per-phase attempt-time accounting — the paper's §3.2 "where does time
//! go" breakdown, measured on the real engine.
//!
//! [`PhaseClock`] is a zero-allocation stopwatch carried by each
//! `WorkerCtx`. The worker hot path stamps *phase transitions* at the
//! existing instrumentation seams (begin, ts allocation, index access,
//! protocol calls, WAL append, commit/abort); the clock charges the time
//! since the previous stamp to the phase that was running. Per attempt the
//! seven [`Phase`] buckets partition the interval from `attempt_started`
//! to commit/abort — the same window the commit/abort latency histograms
//! record — which is the conservation invariant `tests/obs_overhead.rs`
//! checks. Inter-attempt backoff sleeps are deliberately *not* charged:
//! the breakdown attributes attempt time, and excluding backoff keeps the
//! invariant exact.
//!
//! Two costs matter:
//!
//! * **Disabled** (the default): every `set()` is a single branch on a
//!   bool — the runtime-flag compile-out idiom shared with tracing.
//! * **Enabled**: each transition is one timestamp read plus integer
//!   arithmetic. `Instant::now()` costs ~20–25 ns, which at three or four
//!   transitions per operation would break the ≤1.05× overhead budget, so
//!   on x86-64 the clock reads the TSC directly (`_rdtsc`, a few ns) and
//!   converts ticks → ns with one multiply using a once-calibrated rate.
//!   Other targets fall back to `Instant`.
//!
//! Wait time is a special case: the park sites in `SchemeEnv::record_wait`
//! already measure the blocked interval precisely, and that interval is
//! *inside* whatever phase span encloses the park (Manager, usually). The
//! clock therefore takes waits as an explicit deduction
//! ([`PhaseClock::note_wait`]): the waited nanoseconds go to
//! [`Phase::Wait`] and are subtracted from the enclosing span when it
//! closes, so nothing is double-counted.

use abyss_common::stats::{Phase, PhaseBreakdown};
use abyss_common::RunStats;

/// Monotonic tick source: raw TSC on x86-64, `Instant` elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // Safe on every x86-64 CPU we target; the paper's experiments assume
    // an invariant TSC (constant rate across idle states), as do all
    // modern profilers.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn ticks() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, calibrated once per process.
#[cfg(target_arch = "x86_64")]
fn ns_per_tick() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        // Spin ~5 ms against Instant; long enough that the ~20 ns cost of
        // the Instant reads vanishes into the interval.
        let (t0, i0) = (ticks(), Instant::now());
        let spin_until = i0 + std::time::Duration::from_millis(5);
        while Instant::now() < spin_until {
            std::hint::spin_loop();
        }
        let (t1, i1) = (ticks(), Instant::now());
        let dt = t1.saturating_sub(t0).max(1);
        i1.duration_since(i0).as_nanos() as f64 / dt as f64
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn ns_per_tick() -> f64 {
    1.0
}

/// Per-worker phase stopwatch. All fields are plain integers; the struct
/// lives inline in `WorkerCtx` and never allocates.
///
/// The hot path (`set`) is integer-only: spans accumulate in raw *ticks*
/// and are converted to nanoseconds once per attempt at flush time —
/// seven multiplies per attempt instead of one per transition, which is
/// what keeps the enabled clock inside the ≤1.05× overhead budget.
/// [`Phase::Wait`] is the exception: no span is ever charged to it, and
/// the park sites measure it in ns, so its bucket stays in exact ns — a
/// ns → ticks → ns round trip would truncate every wait.
#[derive(Debug)]
pub struct PhaseClock {
    enabled: bool,
    /// Phase the open span is charged to.
    cur: Phase,
    /// Tick stamp at which the open span started.
    since: u64,
    /// Ticks parked inside the open span (already charged to Wait);
    /// deducted when the span closes.
    wait_deduct: u64,
    /// ns-per-tick, copied out of the calibration `OnceLock` so the hot
    /// path never touches shared state.
    rate: f64,
    /// ticks-per-ns, for converting the wait sites' measured ns inward.
    inv_rate: f64,
    /// This attempt's per-phase *ticks* (Wait: ns), converted to ns on
    /// flush.
    scratch: PhaseBreakdown,
}

impl PhaseClock {
    /// A clock; disabled clocks never read the time source.
    pub fn new(enabled: bool) -> Self {
        // Calibrate eagerly (outside the measured run) so the first
        // attempt doesn't pay the 5 ms spin.
        let rate = if enabled { ns_per_tick() } else { 0.0 };
        Self {
            enabled,
            cur: Phase::Manager,
            since: 0,
            wait_deduct: 0,
            rate,
            inv_rate: if enabled { 1.0 / rate } else { 0.0 },
            scratch: PhaseBreakdown::new(),
        }
    }

    /// Whether accounting is on (used by the worker to skip flushes).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new attempt: reset the scratch buckets and open a
    /// [`Phase::Manager`] span (begin bookkeeping runs first).
    #[inline]
    pub fn start_attempt(&mut self) {
        if !self.enabled {
            return;
        }
        self.scratch = PhaseBreakdown::new();
        self.cur = Phase::Manager;
        self.wait_deduct = 0;
        self.since = ticks();
    }

    /// Close the open span, charging it to the current phase, and open a
    /// new span in `next`. One TSC read plus integer arithmetic.
    #[inline]
    pub fn set(&mut self, next: Phase) {
        if !self.enabled {
            return;
        }
        debug_assert_ne!(next, Phase::Wait, "waits go through note_wait");
        let now = ticks();
        let span = now.saturating_sub(self.since);
        self.scratch
            .record(self.cur, span.saturating_sub(self.wait_deduct));
        self.wait_deduct = 0;
        self.cur = next;
        self.since = now;
    }

    /// Record `waited_ns` spent parked (measured by the caller with its
    /// own clock). Charged to [`Phase::Wait`] now, in exact ns, and
    /// deducted from the enclosing span when it closes. Park sites are
    /// rare relative to transitions, so the ns → ticks multiply for the
    /// deduction is off the common path.
    #[inline]
    pub fn note_wait(&mut self, waited_ns: u64) {
        if !self.enabled {
            return;
        }
        self.scratch.record(Phase::Wait, waited_ns);
        self.wait_deduct += (waited_ns as f64 * self.inv_rate) as u64;
    }

    /// Convert the accumulated tick scratch to nanoseconds and reset it.
    fn drain_ns(&mut self) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::new();
        for p in Phase::ALL {
            let t = self.scratch.get(p);
            if p == Phase::Wait {
                out.record(p, t);
            } else if t != 0 {
                out.record(p, (t as f64 * self.rate) as u64);
            }
        }
        self.scratch = PhaseBreakdown::new();
        out
    }

    /// Close the attempt as committed: final span charged to the current
    /// phase, scratch flushed into `stats.phase_ns`. Returns the attempt's
    /// delta so the caller can forward it to a live accumulator.
    #[inline]
    pub fn finish_commit(&mut self, stats: &mut RunStats) -> Option<PhaseBreakdown> {
        if !self.enabled {
            return None;
        }
        self.set(Phase::Manager); // close the open span
        let delta = self.drain_ns();
        stats.phase_ns += delta;
        Some(delta)
    }

    /// Close the attempt as aborted. Everything the attempt did outside
    /// [`Phase::Wait`] was wasted, so UsefulWork/Index/Manager/TsAlloc/
    /// Logging fold into [`Phase::Abort`] (the paper's definition: abort
    /// time = rollback + the wasted attempt). Wait stays Wait — that is
    /// what keeps DL_DETECT wait-dominated and OCC abort-dominated.
    #[inline]
    pub fn finish_abort(&mut self, stats: &mut RunStats) -> Option<PhaseBreakdown> {
        if !self.enabled {
            return None;
        }
        self.set(Phase::Abort); // close the rollback span
        let ns = self.drain_ns();
        let mut folded = PhaseBreakdown::new();
        folded.record(Phase::Wait, ns.get(Phase::Wait));
        folded.record(Phase::Abort, ns.total() - ns.get(Phase::Wait));
        stats.phase_ns += folded;
        Some(folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_records_nothing() {
        let mut c = PhaseClock::new(false);
        let mut stats = RunStats::default();
        c.start_attempt();
        c.set(Phase::Index);
        c.note_wait(1_000_000);
        c.finish_commit(&mut stats);
        assert_eq!(stats.phase_ns.total(), 0);
    }

    #[test]
    fn spans_partition_the_attempt() {
        let mut c = PhaseClock::new(true);
        let mut stats = RunStats::default();
        c.start_attempt();
        let t0 = std::time::Instant::now();
        c.set(Phase::UsefulWork);
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.set(Phase::Index);
        std::thread::sleep(std::time::Duration::from_millis(1));
        c.finish_commit(&mut stats);
        let wall = t0.elapsed().as_nanos() as u64;
        let total = stats.phase_ns.total();
        assert!(stats.phase_ns.get(Phase::UsefulWork) >= 1_000_000);
        assert!(stats.phase_ns.get(Phase::Index) >= 500_000);
        // Σ phases tracks wall time within calibration error + sleep
        // overshoot slack (generous for CI).
        assert!(total <= wall * 2, "total {total} vs wall {wall}");
    }

    #[test]
    fn wait_is_deducted_from_enclosing_span() {
        let mut c = PhaseClock::new(true);
        let mut stats = RunStats::default();
        c.start_attempt();
        c.set(Phase::Manager);
        std::thread::sleep(std::time::Duration::from_millis(2));
        // Pretend the whole sleep was a park measured by record_wait.
        c.note_wait(2_000_000);
        c.finish_commit(&mut stats);
        assert!(stats.phase_ns.get(Phase::Wait) >= 2_000_000);
        // The Manager span must not also contain those 2 ms.
        assert!(
            stats.phase_ns.get(Phase::Manager) < 2_000_000,
            "wait not deducted: manager={}",
            stats.phase_ns.get(Phase::Manager)
        );
    }

    #[test]
    fn abort_folds_wasted_time_but_keeps_wait() {
        let mut c = PhaseClock::new(true);
        let mut stats = RunStats::default();
        c.start_attempt();
        c.set(Phase::UsefulWork);
        std::thread::sleep(std::time::Duration::from_millis(1));
        c.note_wait(500_000);
        c.set(Phase::Abort);
        c.finish_abort(&mut stats);
        assert_eq!(stats.phase_ns.get(Phase::UsefulWork), 0);
        assert!(stats.phase_ns.get(Phase::Abort) > 0);
        assert_eq!(stats.phase_ns.get(Phase::Wait), 500_000);
    }
}
