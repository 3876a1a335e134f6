//! Run statistics and the per-phase time breakdown behind §3.2 of the
//! paper. The paper's six categories (USEFUL WORK, ABORT, TS ALLOCATION,
//! INDEX, WAIT, MANAGER) are a print-time view of the seven [`Phase`]s
//! ([`PhaseBreakdown::paper_fractions`]).
//!
//! Time units are deliberately abstract: the simulator accounts in cycles,
//! the real engine in nanoseconds. Ratios (what the breakdown figures plot)
//! are unit-free.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::error::AbortReason;
use crate::histo::LatencyHisto;

/// Where a nanosecond of an *attempt* went: the paper's six §3.2
/// categories plus an explicit `Logging` phase (the paper predates
/// durability; our WAL append is real time that would otherwise hide
/// inside `Manager`).
///
/// The engine's `PhaseClock` stamps transitions at the instrumentation
/// seams and the simulator surfaces its per-component cycle charges under
/// the same enum, so sim and engine breakdowns are directly comparable.
/// `phase_ns` is conservative: per attempt, the seven buckets partition
/// the interval from `attempt_started` to commit/abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Executing application logic and operating on tuples.
    UsefulWork,
    /// Acquiring a unique timestamp from the allocator.
    TsAlloc,
    /// Index probes: hash buckets, B+-tree descent, range-scan traversal.
    Index,
    /// Parked on a lock or a not-yet-ready tuple value.
    Wait,
    /// CC bookkeeping: lock/ts-manager work, validation, commit/release.
    Manager,
    /// Rollback plus the wasted (non-wait) time of the aborted attempt.
    Abort,
    /// Serializing and appending the commit record to the WAL.
    Logging,
}

impl Phase {
    /// Number of phases (array size for [`PhaseBreakdown`]).
    pub const COUNT: usize = 7;

    /// All phases in display order (paper legend order, then Logging).
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::UsefulWork,
        Phase::Abort,
        Phase::TsAlloc,
        Phase::Index,
        Phase::Wait,
        Phase::Manager,
        Phase::Logging,
    ];

    /// The paper's six §3.2 categories in its legend order: every phase
    /// but Logging, which [`PhaseBreakdown::paper_fractions`] folds into
    /// Manager (the paper had no durability, so WAL time is manager
    /// overhead there).
    pub const PAPER: [Phase; 6] = [
        Phase::UsefulWork,
        Phase::Abort,
        Phase::TsAlloc,
        Phase::Index,
        Phase::Wait,
        Phase::Manager,
    ];

    /// Label as printed in breakdown tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::UsefulWork => "Useful Work",
            Phase::Abort => "Abort",
            Phase::TsAlloc => "Ts Alloc.",
            Phase::Index => "Index",
            Phase::Wait => "Wait",
            Phase::Manager => "Manager",
            Phase::Logging => "Logging",
        }
    }

    /// Short machine-readable key (JSON / Prometheus label values).
    pub fn key(self) -> &'static str {
        match self {
            Phase::UsefulWork => "useful",
            Phase::Abort => "abort",
            Phase::TsAlloc => "ts_alloc",
            Phase::Index => "index",
            Phase::Wait => "wait",
            Phase::Manager => "manager",
            Phase::Logging => "logging",
        }
    }

    /// Dense array index (stable across [`Phase::ALL`] reorderings).
    pub const fn idx(self) -> usize {
        match self {
            Phase::UsefulWork => 0,
            Phase::TsAlloc => 1,
            Phase::Index => 2,
            Phase::Wait => 3,
            Phase::Manager => 4,
            Phase::Abort => 5,
            Phase::Logging => 6,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated attempt time per [`Phase`], in nanoseconds (engine) or
/// cycles (simulator — 1 cycle ≈ 1 ns at the modeled 1 GHz clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    buckets: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` time units to `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, amount: u64) {
        self.buckets[phase.idx()] += amount;
    }

    /// Time accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.buckets[phase.idx()]
    }

    /// Total time across all phases.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of total time in `phase` (0 if the breakdown is empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }

    /// Normalized fractions in [`Phase::ALL`] order.
    pub fn fractions(&self) -> [f64; Phase::COUNT] {
        let mut out = [0.0; Phase::COUNT];
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            out[i] = self.fraction(p);
        }
        out
    }

    /// Serialize as a JSON object keyed by [`Phase::key`]: raw
    /// accumulated time plus normalized fractions, the shape the
    /// `fig_breakdown` harness and the `--breakdown` example emit.
    pub fn to_json(&self) -> String {
        let ns: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\":{}", p.key(), self.get(p)))
            .collect();
        let frac: Vec<String> = Phase::ALL
            .iter()
            .map(|&p| format!("\"{}\":{:.4}", p.key(), self.fraction(p)))
            .collect();
        format!(
            "{{\"ns\":{{{}}},\"fractions\":{{{}}}}}",
            ns.join(","),
            frac.join(",")
        )
    }

    /// Fractions over the paper's six categories, in [`Phase::PAPER`]
    /// order, with Logging folded into Manager — what the §3.2 stacked bar
    /// charts (Figs 8b, 9b, 10b, 12b) plot. Sums to 1 unless empty.
    pub fn paper_fractions(&self) -> [f64; 6] {
        let total = self.total();
        let mut out = [0.0; 6];
        if total == 0 {
            return out;
        }
        for (f, p) in out.iter_mut().zip(Phase::PAPER) {
            let mut t = self.get(p);
            if p == Phase::Manager {
                t += self.get(Phase::Logging);
            }
            *f = t as f64 / total as f64;
        }
        out
    }
}

impl Add for PhaseBreakdown {
    type Output = Self;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets) {
            *a += b;
        }
    }
}

/// Service priority class of a submitted transaction.
///
/// The serving layer (`abyss-core`'s `serve` module) queues requests in two
/// classes: `High` (latency-sensitive, dequeued preferentially) and `Low`
/// (bulk). Stats index per-class counters by [`Priority::idx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: dequeued preferentially, shed last.
    High,
    /// Bulk / best-effort: shed first under overload.
    Low,
}

impl Priority {
    /// Number of priority classes (array size for per-class stats).
    pub const COUNT: usize = 2;

    /// All classes in display order.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Low];

    /// Dense array index.
    pub const fn idx(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Low => 1,
        }
    }

    /// Short machine-readable key (JSON / Prometheus label values).
    pub fn key(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Statistics for one benchmark run (one worker, or merged over workers).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Committed transactions.
    pub commits: u64,
    /// Commits per workload-defined transaction tag (TPC-C: 0 = Payment,
    /// 1 = NewOrder). Figs 16–17 plot these separately. The final slot is
    /// the explicit "other" bucket for tags ≥ [`RunStats::TAG_BUCKETS`].
    pub commits_by_tag: [u64; RunStats::TAG_BUCKETS + 1],
    /// Aborts, by cause. Index order follows [`RunStats::ABORT_ORDER`].
    pub aborts: [u64; 8],
    /// Tuples accessed by committed transactions (Fig. 12's y-axis).
    pub tuples_committed: u64,
    /// Elapsed time units (cycles or nanoseconds) covered by the run.
    pub elapsed: u64,
    /// Conservative per-attempt phase accounting (seven phases, includes
    /// Logging). Empty unless the engine runs with `breakdown` enabled;
    /// the simulator always fills it (its charges are free to attribute).
    pub phase_ns: PhaseBreakdown,
    /// Timestamps allocated (for the Fig. 6 micro-benchmark).
    pub ts_allocated: u64,
    /// Range scans executed (committed or not).
    pub scans: u64,
    /// Range-scan restarts: optimistic B+-tree retries plus scheme-level
    /// leaf revalidation retries. An index-health signal — a rising
    /// retry-per-scan ratio means scans are fighting structural churn.
    pub scan_retries: u64,
    /// TICTOC: commit-time `rts` extensions — reads validated by advancing
    /// the tuple's read timestamp with a CAS instead of aborting. The
    /// scheme's signature fast path; a contended read-heavy run that
    /// reports zero extensions means the path is silently disabled.
    pub rts_extensions: u64,
    /// WAL commit records appended (logging enabled only).
    pub log_records: u64,
    /// WAL bytes appended (frame + body; logging enabled only).
    pub log_bytes: u64,
    /// WAL buffer drains to the OS (filled in by the run drivers from the
    /// shared log's counters after the workers join).
    pub log_flushes: u64,
    /// WAL fsync calls (driver-filled, like [`RunStats::log_flushes`]).
    pub log_fsyncs: u64,
    /// Epochs between the run's final epoch and its durable epoch before
    /// the shutdown flush — the group-commit acknowledgement lag.
    pub durable_epoch_lag: u64,
    /// Latency of committed attempts, begin → commit acknowledgement
    /// (nanoseconds in the engine, cycles in the simulator).
    pub commit_latency: LatencyHisto,
    /// Latency of aborted attempts, begin → abort. Together with
    /// [`RunStats::commit_latency`] this covers every attempt, so wasted
    /// time under retries is visible, not just the winning attempt.
    pub abort_latency: LatencyHisto,
    /// Adaptive-backoff pauses taken (one per aborted attempt that waited
    /// a nonzero delay; zero when the controller is disabled).
    pub backoffs: u64,
    /// Total nanoseconds requested by the adaptive backoff controller
    /// (the delays handed to the spin/yield/sleep ladder, pre-jitter).
    pub backoff_ns: u64,
    /// The controller's final per-worker delay in nanoseconds — a gauge,
    /// merged by max across workers: where the feedback loop settled.
    pub backoff_delay_ns: u64,
    /// Requests shed at admission by the serving layer, per priority class
    /// (indexed by [`Priority::idx`]). Zero for closed-loop runs.
    pub sheds: [u64; Priority::COUNT],
    /// Queue-to-ack latency per priority class: submit → ticket resolution,
    /// covering queueing delay plus execution (indexed by
    /// [`Priority::idx`]). Empty for closed-loop runs.
    pub queue_ack_latency: [LatencyHisto; Priority::COUNT],
}

impl RunStats {
    /// Named per-tag commit buckets. Workload tags `0..TAG_BUCKETS` get
    /// their own slot in [`RunStats::commits_by_tag`]; anything beyond
    /// lands in the explicit [`RunStats::TAG_OTHER`] overflow bucket
    /// instead of silently aliasing the last named tag.
    pub const TAG_BUCKETS: usize = 4;
    /// Index of the overflow bucket in [`RunStats::commits_by_tag`].
    pub const TAG_OTHER: usize = Self::TAG_BUCKETS;

    /// Order of the abort-reason buckets in [`RunStats::aborts`].
    pub const ABORT_ORDER: [AbortReason; 8] = [
        AbortReason::LockConflict,
        AbortReason::Deadlock,
        AbortReason::WaitDieKilled,
        AbortReason::WaitTimeout,
        AbortReason::TsOrderViolation,
        AbortReason::ValidationFail,
        AbortReason::MvccWriteConflict,
        AbortReason::UserAbort,
    ];

    /// Bucket of `reason` in [`RunStats::aborts`] — a constant lookup (the
    /// abort path of every contended run hits this), kept in lock-step
    /// with [`RunStats::ABORT_ORDER`] by a test.
    const fn abort_idx(reason: AbortReason) -> usize {
        match reason {
            AbortReason::LockConflict => 0,
            AbortReason::Deadlock => 1,
            AbortReason::WaitDieKilled => 2,
            AbortReason::WaitTimeout => 3,
            AbortReason::TsOrderViolation => 4,
            AbortReason::ValidationFail => 5,
            AbortReason::MvccWriteConflict => 6,
            AbortReason::UserAbort => 7,
        }
    }

    /// Record one abort.
    #[inline]
    pub fn record_abort(&mut self, reason: AbortReason) {
        self.aborts[Self::abort_idx(reason)] += 1;
    }

    /// Record one commit of a transaction with workload tag `tag`. Tags
    /// beyond [`RunStats::TAG_BUCKETS`] are counted under
    /// [`RunStats::TAG_OTHER`]; debug builds flag them so a new workload
    /// tag widens the named buckets instead of vanishing into "other".
    #[inline]
    pub fn record_commit(&mut self, tag: u8) {
        self.commits += 1;
        debug_assert!(
            (tag as usize) < Self::TAG_BUCKETS,
            "txn tag {tag} has no named bucket — widen RunStats::TAG_BUCKETS"
        );
        let idx = if (tag as usize) < Self::TAG_BUCKETS {
            tag as usize
        } else {
            Self::TAG_OTHER
        };
        self.commits_by_tag[idx] += 1;
    }

    /// Aborts for one reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.aborts[Self::abort_idx(reason)]
    }

    /// Total aborts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Abort rate: aborts / (aborts + commits). 0 for an empty run.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.total_aborts() + self.commits;
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Throughput in transactions per time unit (caller scales by the unit).
    pub fn throughput_per_unit(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.commits as f64 / self.elapsed as f64
        }
    }

    /// Merge per-worker stats into a run total. `elapsed` is the max (the
    /// workers run concurrently), everything else sums.
    pub fn merge(&mut self, other: &RunStats) {
        self.commits += other.commits;
        for (a, b) in self.commits_by_tag.iter_mut().zip(other.commits_by_tag) {
            *a += b;
        }
        for (a, b) in self.aborts.iter_mut().zip(other.aborts) {
            *a += b;
        }
        self.tuples_committed += other.tuples_committed;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.phase_ns += other.phase_ns;
        self.ts_allocated += other.ts_allocated;
        self.scans += other.scans;
        self.scan_retries += other.scan_retries;
        self.rts_extensions += other.rts_extensions;
        self.log_records += other.log_records;
        self.log_bytes += other.log_bytes;
        self.log_flushes += other.log_flushes;
        self.log_fsyncs += other.log_fsyncs;
        self.durable_epoch_lag = self.durable_epoch_lag.max(other.durable_epoch_lag);
        self.backoffs += other.backoffs;
        self.backoff_ns += other.backoff_ns;
        self.backoff_delay_ns = self.backoff_delay_ns.max(other.backoff_delay_ns);
        self.commit_latency += &other.commit_latency;
        self.abort_latency += &other.abort_latency;
        for (a, b) in self.sheds.iter_mut().zip(other.sheds) {
            *a += b;
        }
        for (a, b) in self
            .queue_ack_latency
            .iter_mut()
            .zip(other.queue_ack_latency.iter())
        {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_bookkeeping() {
        let mut s = RunStats {
            commits: 90,
            ..Default::default()
        };
        s.record_abort(AbortReason::Deadlock);
        s.record_abort(AbortReason::Deadlock);
        s.record_abort(AbortReason::ValidationFail);
        assert_eq!(s.aborts_for(AbortReason::Deadlock), 2);
        assert_eq!(s.total_aborts(), 3);
        assert!((s.abort_rate() - 3.0 / 93.0).abs() < 1e-12);
    }

    #[test]
    fn merge_takes_max_elapsed_and_sums_counts() {
        let mut a = RunStats {
            commits: 10,
            elapsed: 100,
            ..Default::default()
        };
        let b = RunStats {
            commits: 20,
            elapsed: 80,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 30);
        assert_eq!(a.elapsed, 100);
    }

    #[test]
    fn throughput_handles_empty_run() {
        let s = RunStats::default();
        assert_eq!(s.throughput_per_unit(), 0.0);
    }

    #[test]
    fn abort_idx_matches_abort_order() {
        // The const lookup must stay in lock-step with ABORT_ORDER.
        for (i, r) in RunStats::ABORT_ORDER.into_iter().enumerate() {
            let mut s = RunStats::default();
            s.record_abort(r);
            assert_eq!(s.aborts[i], 1, "{r:?} must land in bucket {i}");
        }
    }

    #[test]
    fn named_tags_get_their_own_bucket() {
        let mut s = RunStats::default();
        for tag in 0..RunStats::TAG_BUCKETS as u8 {
            s.record_commit(tag);
        }
        for tag in 0..RunStats::TAG_BUCKETS {
            assert_eq!(s.commits_by_tag[tag], 1);
        }
        assert_eq!(s.commits_by_tag[RunStats::TAG_OTHER], 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn overflow_tags_land_in_other_bucket() {
        // Release semantics: an unnamed tag is counted, visibly, as
        // "other" — never aliased into the last named bucket.
        let mut s = RunStats::default();
        s.record_commit(RunStats::TAG_BUCKETS as u8);
        s.record_commit(u8::MAX);
        assert_eq!(s.commits_by_tag[RunStats::TAG_OTHER], 2);
        assert_eq!(s.commits_by_tag[RunStats::TAG_BUCKETS - 1], 0);
        assert_eq!(s.commits, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no named bucket")]
    fn overflow_tag_panics_in_debug() {
        let mut s = RunStats::default();
        s.record_commit(RunStats::TAG_BUCKETS as u8);
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let mut p = PhaseBreakdown::new();
        p.record(Phase::UsefulWork, 50);
        p.record(Phase::Wait, 30);
        p.record(Phase::Manager, 12);
        p.record(Phase::Logging, 8);
        let total: f64 = p.fractions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p.total(), 100);
        assert_eq!(PhaseBreakdown::new().fraction(Phase::Wait), 0.0);
    }

    #[test]
    fn paper_view_folds_logging_into_manager() {
        let mut p = PhaseBreakdown::new();
        p.record(Phase::UsefulWork, 50);
        p.record(Phase::Wait, 30);
        p.record(Phase::Manager, 12);
        p.record(Phase::Logging, 8);
        // Useful, Abort, TsAlloc, Index, Wait, Manager (+ Logging).
        let f = p.paper_fractions();
        assert_eq!(f, [0.5, 0.0, 0.0, 0.0, 0.3, 0.2]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(Phase::PAPER, Phase::ALL[..6]);
        assert_eq!(PhaseBreakdown::new().paper_fractions(), [0.0; 6]);
    }

    #[test]
    fn phase_idx_is_a_bijection() {
        let mut seen = [false; Phase::COUNT];
        for p in Phase::ALL {
            assert!(!seen[p.idx()], "{p:?} reuses index {}", p.idx());
            seen[p.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merge_sums_phase_ns() {
        let mut a = RunStats::default();
        a.phase_ns.record(Phase::Index, 5);
        let mut b = RunStats::default();
        b.phase_ns.record(Phase::Index, 7);
        b.phase_ns.record(Phase::Abort, 3);
        a.merge(&b);
        assert_eq!(a.phase_ns.get(Phase::Index), 12);
        assert_eq!(a.phase_ns.get(Phase::Abort), 3);
    }

    #[test]
    fn merge_sums_sheds_and_queue_latency() {
        let mut a = RunStats::default();
        a.sheds[Priority::Low.idx()] = 3;
        a.queue_ack_latency[Priority::High.idx()].record(50);
        let mut b = RunStats::default();
        b.sheds[Priority::Low.idx()] = 4;
        b.sheds[Priority::High.idx()] = 1;
        b.queue_ack_latency[Priority::High.idx()].record(70);
        b.queue_ack_latency[Priority::Low.idx()].record(900);
        a.merge(&b);
        assert_eq!(a.sheds, [1, 7]);
        assert_eq!(a.queue_ack_latency[Priority::High.idx()].count(), 2);
        assert_eq!(a.queue_ack_latency[Priority::Low.idx()].count(), 1);
    }

    #[test]
    fn priority_idx_is_a_bijection() {
        let mut seen = [false; Priority::COUNT];
        for p in Priority::ALL {
            assert!(!seen[p.idx()], "{p:?} reuses index {}", p.idx());
            seen[p.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merge_sums_backoffs_and_maxes_delay_gauge() {
        let mut a = RunStats {
            backoffs: 2,
            backoff_ns: 1_000,
            backoff_delay_ns: 500,
            ..Default::default()
        };
        let b = RunStats {
            backoffs: 3,
            backoff_ns: 9_000,
            backoff_delay_ns: 300,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.backoffs, 5);
        assert_eq!(a.backoff_ns, 10_000);
        // The settled-delay gauge takes the max, not the sum.
        assert_eq!(a.backoff_delay_ns, 500);
    }

    #[test]
    fn merge_combines_latency_histograms() {
        let mut a = RunStats::default();
        a.commit_latency.record(100);
        a.abort_latency.record(7);
        let mut b = RunStats::default();
        b.commit_latency.record(200_000);
        a.merge(&b);
        assert_eq!(a.commit_latency.count(), 2);
        assert_eq!(a.abort_latency.count(), 1);
        assert!(a.commit_latency.p999() <= a.commit_latency.max());
    }
}
