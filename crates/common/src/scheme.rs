//! The concurrency-control schemes and timestamp-allocation methods
//! evaluated by the paper (Tables 1 and Fig. 6), plus the modern
//! data-driven-timestamp schemes (Silo, TicToc) the repo adds on top of
//! the paper's seven.

use std::fmt;
use std::str::FromStr;

/// The seven concurrency-control schemes of Table 1 in the paper, plus
/// [`CcScheme::Silo`] and [`CcScheme::TicToc`] — the modern OCC variants
/// that need no per-transaction global timestamp at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CcScheme {
    /// 2PL with deadlock detection (partitioned waits-for graph).
    DlDetect,
    /// 2PL with non-waiting deadlock prevention: deny ⇒ abort.
    NoWait,
    /// 2PL with wait-die deadlock prevention: older waits, younger dies.
    WaitDie,
    /// Basic timestamp ordering with per-tuple read/write timestamps.
    Timestamp,
    /// Multi-version timestamp ordering (version chains per tuple).
    Mvcc,
    /// Optimistic concurrency control with per-tuple (distributed) validation.
    Occ,
    /// T/O with partition-level locking (H-Store / Smallbase model).
    HStore,
    /// Epoch-based OCC (Silo, SOSP'13): read-set TID recording, write-set
    /// locking + validation, epoch-composed commit TIDs. No centralized
    /// timestamp allocation anywhere on the commit path.
    Silo,
    /// Data-driven timestamp OCC (TicToc, SIGMOD'16): per-tuple `wts`/`rts`
    /// words, commit timestamps *computed* from the read/write sets, and
    /// commit-time `rts` extension in place of re-reads. Like SILO it
    /// allocates zero global timestamps; unlike SILO it needs no epoch
    /// fence on the commit path either.
    TicToc,
}

impl CcScheme {
    /// All schemes: the paper's seven in its order, then the modern
    /// additions. **The single source of truth** — tests, examples and the
    /// conformance matrix must derive their scheme lists from this array
    /// (or carry a sync guard against it) so a new variant cannot be
    /// silently skipped.
    pub const ALL: [CcScheme; 9] = [
        CcScheme::DlDetect,
        CcScheme::NoWait,
        CcScheme::WaitDie,
        CcScheme::Timestamp,
        CcScheme::Mvcc,
        CcScheme::Occ,
        CcScheme::HStore,
        CcScheme::Silo,
        CcScheme::TicToc,
    ];

    /// The classic-vs-modern comparison set (`fig_modern`): every classic
    /// scheme the modern OCC variants are benchmarked against, plus Silo
    /// and TicToc themselves.
    pub const MODERN_COMPARISON: [CcScheme; 6] = [
        CcScheme::DlDetect,
        CcScheme::NoWait,
        CcScheme::Timestamp,
        CcScheme::Occ,
        CcScheme::Silo,
        CcScheme::TicToc,
    ];

    /// The six schemes used in the non-partitioned experiments
    /// (H-STORE is only introduced in §5.5).
    pub const NON_PARTITIONED: [CcScheme; 6] = [
        CcScheme::DlDetect,
        CcScheme::NoWait,
        CcScheme::WaitDie,
        CcScheme::Timestamp,
        CcScheme::Mvcc,
        CcScheme::Occ,
    ];

    /// Is this scheme a two-phase-locking variant (vs timestamp ordering)?
    pub const fn is_two_phase_locking(self) -> bool {
        matches!(
            self,
            CcScheme::DlDetect | CcScheme::NoWait | CcScheme::WaitDie
        )
    }

    /// Does the scheme require a timestamp at transaction start?
    ///
    /// Everything except DL_DETECT, NO_WAIT, SILO and TICTOC needs one; OCC
    /// needs a second one before validation (handled by the engines). SILO
    /// replaces global timestamps with epoch-composed commit TIDs; TICTOC
    /// computes its commit timestamp from per-tuple `wts`/`rts` metadata.
    pub const fn needs_start_ts(self) -> bool {
        !matches!(
            self,
            CcScheme::DlDetect | CcScheme::NoWait | CcScheme::Silo | CcScheme::TicToc
        )
    }

    /// Do restarted transactions keep their original timestamp? WAIT_DIE's
    /// age-based priority depends on it (a restarted transaction must
    /// eventually become the oldest); every other timestamped scheme
    /// restarts with a fresh one (§2.2).
    pub const fn reuses_ts_on_restart(self) -> bool {
        matches!(self, CcScheme::WaitDie)
    }

    /// Does the scheme register every transaction with the engine's epoch
    /// subsystem, independent of logging? SILO composes commit TIDs from
    /// the epoch; TICTOC consumes it as its GC quiescence horizon. (With
    /// logging enabled the engine additionally registers *every* scheme,
    /// as the group-commit flush horizon.)
    pub const fn uses_epoch(self) -> bool {
        matches!(self, CcScheme::Silo | CcScheme::TicToc)
    }

    /// Does the engine maintain a waits-for graph for this scheme
    /// (DL_DETECT's deadlock detection, §4.2)?
    pub const fn tracks_waits(self) -> bool {
        matches!(self, CcScheme::DlDetect)
    }

    /// Does a point access need a post-admission index re-probe to guard
    /// against a concurrently *committed* delete? TIMESTAMP tombstones
    /// deleted tuples (`wts = ∞`), and H-STORE's partition ownership
    /// excludes concurrent deleters — neither needs the probe.
    pub const fn guards_deleted_rows(self) -> bool {
        !matches!(self, CcScheme::Timestamp | CcScheme::HStore)
    }

    /// Multiplicative-increase gain of the adaptive backoff controller,
    /// in percent of the current delay per unit abort rate. The optimistic
    /// schemes burn a whole execution before discovering a conflict, so a
    /// high abort rate is worth aggressive restraint; the T/O schemes
    /// discover conflicts mid-flight and want moderate gains; the 2PL
    /// variants resolve contention in the lock table itself and barely
    /// benefit from backing off at all.
    pub const fn backoff_gain_pct(self) -> u32 {
        match self {
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => 100,
            CcScheme::Timestamp | CcScheme::Mvcc => 50,
            CcScheme::HStore => 25,
            CcScheme::DlDetect | CcScheme::NoWait | CcScheme::WaitDie => 10,
        }
    }

    /// Ceiling of the adaptive backoff delay in microseconds. OCC-family
    /// schemes tolerate long pauses (the delayed transaction would have
    /// aborted at validation anyway); 2PL variants must stay responsive or
    /// a backed-off lock holder stalls everyone queued behind it.
    pub const fn backoff_ceiling_us(self) -> u64 {
        match self {
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => 2_000,
            CcScheme::Timestamp | CcScheme::Mvcc => 1_000,
            CcScheme::HStore => 500,
            CcScheme::DlDetect | CcScheme::NoWait | CcScheme::WaitDie => 100,
        }
    }

    /// Can a statically read-only transaction skip the scheme's
    /// commit-time timestamp allocation? Only OCC draws a second (validation)
    /// timestamp at commit — for a transaction with an empty write set the
    /// validation window is empty and the allocation is pure hot-word
    /// traffic. Every other scheme either allocates nothing at commit or
    /// needs its commit serial regardless.
    pub const fn ro_commit_skips_ts(self) -> bool {
        matches!(self, CcScheme::Occ)
    }

    /// Number of timestamps allocated per (successful) transaction.
    pub fn timestamps_per_txn(self) -> u32 {
        match self {
            CcScheme::DlDetect | CcScheme::NoWait | CcScheme::Silo | CcScheme::TicToc => 0,
            CcScheme::Occ => 2,
            _ => 1,
        }
    }

    /// The short upper-case name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CcScheme::DlDetect => "DL_DETECT",
            CcScheme::NoWait => "NO_WAIT",
            CcScheme::WaitDie => "WAIT_DIE",
            CcScheme::Timestamp => "TIMESTAMP",
            CcScheme::Mvcc => "MVCC",
            CcScheme::Occ => "OCC",
            CcScheme::HStore => "HSTORE",
            CcScheme::Silo => "SILO",
            CcScheme::TicToc => "TICTOC",
        }
    }
}

impl fmt::Display for CcScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CcScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_uppercase().replace('-', "_");
        Self::ALL
            .into_iter()
            .find(|c| c.name() == norm || c.name().replace('_', "") == norm)
            .ok_or_else(|| format!("unknown concurrency-control scheme: {s:?}"))
    }
}

/// Timestamp-allocation methods from §4.3 / Fig. 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsMethod {
    /// A mutex around the counter — the naïve baseline.
    Mutex,
    /// A single atomic fetch-add; the cache line ping-pongs across the chip.
    Atomic,
    /// Atomic fetch-add that hands out `batch` timestamps at once (Silo).
    Batched { batch: u32 },
    /// Synchronized per-core clocks concatenated with the thread id.
    Clock,
    /// A hardware counter at the center of the chip, incremented remotely in
    /// one cycle (simulator only; no shipping CPU has this).
    Hardware,
}

impl TsMethod {
    /// The methods plotted in Fig. 6, in its legend order.
    pub const FIG6: [TsMethod; 6] = [
        TsMethod::Clock,
        TsMethod::Hardware,
        TsMethod::Batched { batch: 16 },
        TsMethod::Batched { batch: 8 },
        TsMethod::Atomic,
        TsMethod::Mutex,
    ];

    /// Short label as used in the paper's legends.
    pub fn label(self) -> String {
        match self {
            TsMethod::Mutex => "Mutex".into(),
            TsMethod::Atomic => "Atomic".into(),
            TsMethod::Batched { batch } => format!("Atomic batch={batch}"),
            TsMethod::Clock => "Clock".into(),
            TsMethod::Hardware => "HW Counter".into(),
        }
    }

    /// Whether a real (non-simulated) implementation exists on stock CPUs.
    pub fn realizable_on_host(self) -> bool {
        !matches!(self, TsMethod::Hardware)
    }
}

impl fmt::Display for TsMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scheme_names() {
        assert_eq!("DL_DETECT".parse::<CcScheme>().unwrap(), CcScheme::DlDetect);
        assert_eq!("no_wait".parse::<CcScheme>().unwrap(), CcScheme::NoWait);
        assert_eq!("wait-die".parse::<CcScheme>().unwrap(), CcScheme::WaitDie);
        assert_eq!("MVCC".parse::<CcScheme>().unwrap(), CcScheme::Mvcc);
        assert_eq!("hstore".parse::<CcScheme>().unwrap(), CcScheme::HStore);
        assert_eq!("silo".parse::<CcScheme>().unwrap(), CcScheme::Silo);
        assert_eq!("tictoc".parse::<CcScheme>().unwrap(), CcScheme::TicToc);
        assert!("lockfree".parse::<CcScheme>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in CcScheme::ALL {
            assert_eq!(s.to_string().parse::<CcScheme>().unwrap(), s);
        }
    }

    #[test]
    fn classification_matches_table1() {
        use CcScheme::*;
        for s in [DlDetect, NoWait, WaitDie] {
            assert!(s.is_two_phase_locking());
        }
        for s in [Timestamp, Mvcc, Occ, HStore, Silo, TicToc] {
            assert!(!s.is_two_phase_locking());
        }
    }

    #[test]
    fn timestamp_counts() {
        assert_eq!(CcScheme::Occ.timestamps_per_txn(), 2);
        assert_eq!(CcScheme::NoWait.timestamps_per_txn(), 0);
        assert_eq!(CcScheme::Mvcc.timestamps_per_txn(), 1);
        assert_eq!(CcScheme::Silo.timestamps_per_txn(), 0);
        assert_eq!(CcScheme::TicToc.timestamps_per_txn(), 0);
        assert!(CcScheme::WaitDie.needs_start_ts());
        assert!(!CcScheme::DlDetect.needs_start_ts());
        assert!(!CcScheme::Silo.needs_start_ts());
        assert!(!CcScheme::TicToc.needs_start_ts());
    }

    #[test]
    fn ts_method_labels() {
        assert_eq!(TsMethod::Batched { batch: 8 }.label(), "Atomic batch=8");
        assert!(TsMethod::Clock.realizable_on_host());
        assert!(!TsMethod::Hardware.realizable_on_host());
    }
}
