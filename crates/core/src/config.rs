//! Engine configuration.

use std::path::PathBuf;

use abyss_common::{CcScheme, PinPolicy, TsMethod};
use abyss_storage::FsyncPolicy;

/// Durability (write-ahead logging) configuration.
///
/// Disabled by default — the paper's in-memory setting. When enabled,
/// every worker appends its committed write sets to a private redo shard
/// under [`LogConfig::dir`]; durability is acknowledged per
/// [`LogConfig::fsync`] (see `crates/storage/src/wal.rs` and the
/// DESIGN.md durability section).
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Master switch. Off ⇒ zero logging overhead anywhere.
    pub enabled: bool,
    /// Directory holding the per-worker shard files and the durable-epoch
    /// meta file.
    pub dir: PathBuf,
    /// When log writes are forced to the device.
    pub fsync: FsyncPolicy,
    /// Microseconds between background group flushes (the group-commit
    /// cadence; usually the epoch interval). 0 disables the background
    /// flusher — flushes then only happen through
    /// [`crate::db::Database::log_group_flush`] /
    /// [`crate::db::Database::log_flush_all`] (tests, manual drivers).
    pub group_interval_us: u64,
    /// Per-shard buffered bytes that trigger an early (non-fencing) drain
    /// to the OS, bounding worker-side buffer growth between group
    /// flushes.
    pub group_max_bytes: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            dir: PathBuf::from("wal"),
            fsync: FsyncPolicy::Group,
            group_interval_us: 40_000,
            group_max_bytes: 1 << 20,
        }
    }
}

/// Transaction event tracing configuration (see [`crate::obs::trace`]).
///
/// Disabled by default: the database then allocates no rings at all and
/// every event site reduces to an `Option` check — the compile-out is a
/// runtime flag rather than a cargo feature so one binary can measure
/// both sides (the overhead guard in CI does exactly that).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master switch.
    pub enabled: bool,
    /// Events retained per worker (rounded up to a power of two);
    /// overwrite-oldest beyond that.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity: 4096,
        }
    }
}

/// Configuration for a [`crate::db::Database`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The concurrency-control scheme under test.
    pub scheme: CcScheme,
    /// Timestamp-allocation method (ignored by DL_DETECT / NO_WAIT).
    pub ts_method: TsMethod,
    /// Number of worker threads the database will serve. Sizes the
    /// per-worker registries (waits-for slots, wakeup flags).
    pub workers: u32,
    /// DL_DETECT: abort a transaction after waiting this many microseconds
    /// (the Fig. 5 knob; paper default 100 µs). `u64::MAX` disables.
    pub dl_timeout_us: u64,
    /// DL_DETECT: run a deadlock-detection pass after waiting this many
    /// microseconds, then after every further such interval.
    pub dl_detect_interval_us: u64,
    /// Number of H-STORE partitions (usually = workers; 1 for the rest).
    pub partitions: u32,
    /// MVCC: maximum committed versions retained per tuple before the
    /// oldest is garbage-collected.
    pub mvcc_max_versions: usize,
    /// SILO / TICTOC: microseconds between background epoch advances
    /// (Silo's paper default is 40 ms; TICTOC consumes epochs only as its
    /// GC quiescence horizon). 0 disables the ticker (epochs advance only
    /// via [`crate::epoch::EpochManager::advance`]). Ignored by other
    /// schemes.
    pub epoch_interval_us: u64,
    /// Safety valve: abort any wait after this many microseconds regardless
    /// of scheme, so a stuck experiment fails loudly instead of hanging.
    pub wait_cap_us: u64,
    /// Durability: per-worker redo logging with epoch group commit.
    pub log: LogConfig,
    /// Observability: per-worker transaction event tracing.
    pub trace: TraceConfig,
    /// Observability: per-phase attempt-time accounting (the paper's §3.2
    /// "where does time go" breakdown, see `crate::obs::breakdown`). Off by
    /// default: every phase transition then reduces to one branch, the
    /// same runtime-flag compile-out idiom as [`TraceConfig`].
    pub breakdown: bool,
    /// Thread→core placement for worker threads spawned by the engine
    /// (the bench drivers in [`crate::worker`] and the serving layer's
    /// pool). [`PinPolicy::None`] (the default) leaves placement to the
    /// OS scheduler; pinning is best-effort — a worker whose assigned
    /// core does not exist simply runs unpinned.
    pub pin: PinPolicy,
    /// Contention regulation: replace the fixed escalation backoff with
    /// the per-worker AIMD controller ([`crate::backoff::BackoffCtl`]),
    /// tuned by the scheme's gain/ceiling capabilities. Off by default so
    /// seeded replays and golden digests keep the paper's fixed schedule.
    pub adaptive_backoff: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            scheme: CcScheme::NoWait,
            ts_method: TsMethod::Atomic,
            workers: 1,
            dl_timeout_us: 100,
            dl_detect_interval_us: 10,
            partitions: 1,
            mvcc_max_versions: 8,
            epoch_interval_us: 40_000,
            wait_cap_us: 2_000_000,
            log: LogConfig::default(),
            trace: TraceConfig::default(),
            breakdown: false,
            pin: PinPolicy::default(),
            adaptive_backoff: false,
        }
    }
}

impl EngineConfig {
    /// A config for `scheme` with `workers` threads and paper defaults.
    pub fn new(scheme: CcScheme, workers: u32) -> Self {
        let partitions = if scheme == CcScheme::HStore {
            workers
        } else {
            1
        };
        Self {
            scheme,
            workers,
            partitions,
            ..Self::default()
        }
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be positive".into());
        }
        if self.workers > crate::txn::MAX_WORKERS as u32 {
            return Err(format!("workers capped at {}", crate::txn::MAX_WORKERS));
        }
        if self.partitions == 0 {
            return Err("partitions must be positive".into());
        }
        if self.scheme == CcScheme::HStore && self.partitions == 1 && self.workers > 1 {
            return Err("H-STORE with one partition serializes everything".into());
        }
        if self.mvcc_max_versions < 2 {
            return Err("mvcc_max_versions must be at least 2".into());
        }
        if self.log.enabled && self.log.dir.as_os_str().is_empty() {
            return Err("logging enabled without a log directory".into());
        }
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err("tracing enabled with zero ring capacity".into());
        }
        Ok(())
    }

    /// Enable write-ahead logging into `dir` with `fsync` (builder-style
    /// convenience for tests and benches).
    pub fn with_logging(mut self, dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        self.log.enabled = true;
        self.log.dir = dir.into();
        self.log.fsync = fsync;
        self
    }

    /// Enable transaction event tracing with `capacity` events retained
    /// per worker (builder-style convenience for tests and benches).
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace.enabled = true;
        self.trace.capacity = capacity;
        self
    }

    /// Enable per-phase attempt-time accounting (builder-style convenience
    /// for tests and benches).
    pub fn with_breakdown(mut self) -> Self {
        self.breakdown = true;
        self
    }

    /// Pin engine worker threads per `policy` (builder-style convenience
    /// for benches).
    pub fn with_pinning(mut self, policy: PinPolicy) -> Self {
        self.pin = policy;
        self
    }

    /// Enable the adaptive AIMD backoff controller (builder-style
    /// convenience for benches).
    pub fn with_adaptive_backoff(mut self) -> Self {
        self.adaptive_backoff = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hstore_defaults_partitions_to_workers() {
        let c = EngineConfig::new(CcScheme::HStore, 8);
        assert_eq!(c.partitions, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_workers() {
        let mut c = EngineConfig::new(CcScheme::NoWait, 4);
        c.workers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn logging_requires_a_directory() {
        let mut c = EngineConfig::new(CcScheme::NoWait, 1).with_logging("", FsyncPolicy::Group);
        assert!(c.validate().is_err());
        c.log.dir = "wal".into();
        assert!(c.validate().is_ok());
        assert_eq!(c.log.fsync, FsyncPolicy::Group);
    }

    #[test]
    fn tracing_requires_capacity() {
        let mut c = EngineConfig::new(CcScheme::NoWait, 1).with_tracing(0);
        assert!(c.validate().is_err());
        c.trace.capacity = 256;
        assert!(c.validate().is_ok());
        assert!(c.trace.enabled);
    }

    #[test]
    fn breakdown_is_off_by_default_and_builder_enables_it() {
        let c = EngineConfig::new(CcScheme::Occ, 2);
        assert!(!c.breakdown);
        let c = c.with_breakdown();
        assert!(c.breakdown);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pinning_defaults_off_and_builder_enables_it() {
        let c = EngineConfig::new(CcScheme::NoWait, 4);
        assert_eq!(c.pin, PinPolicy::None);
        let c = c.with_pinning(PinPolicy::Compact);
        assert_eq!(c.pin, PinPolicy::Compact);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn adaptive_backoff_defaults_off_and_builder_enables_it() {
        let c = EngineConfig::new(CcScheme::Silo, 4);
        assert!(!c.adaptive_backoff, "adaptive backoff must be opt-in");
        let c = c.with_adaptive_backoff();
        assert!(c.adaptive_backoff);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_single_partition_hstore() {
        let mut c = EngineConfig::new(CcScheme::HStore, 4);
        c.partitions = 1;
        assert!(c.validate().is_err());
    }
}
