//! The simulation driver: event loop, warmup handling, reporting.

use abyss_common::{RunStats, TxnTemplate};

use crate::config::SimConfig;
use crate::cost::cycles_to_secs;
use crate::db::{SimDb, SimTable};
use crate::exec::Sim;
use crate::kernel::EventKind;

/// The result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Merged statistics over all cores. `elapsed` is the measured window
    /// in cycles; `phase_ns` is in cycles.
    pub stats: RunStats,
    /// Core count of the run.
    pub cores: u32,
    /// Tuples with materialized metadata (memory diagnostics).
    pub materialized_tuples: usize,
}

impl SimReport {
    /// Committed transactions per (simulated) second.
    pub fn txn_per_sec(&self) -> f64 {
        self.stats.commits as f64 / cycles_to_secs(self.stats.elapsed)
    }

    /// Tuples accessed by committed transactions per second (Fig. 12).
    pub fn tuples_per_sec(&self) -> f64 {
        self.stats.tuples_committed as f64 / cycles_to_secs(self.stats.elapsed)
    }

    /// Commits per second of transactions tagged `tag` (TPC-C figs).
    pub fn tagged_txn_per_sec(&self, tag: u8) -> f64 {
        self.stats.commits_by_tag[tag as usize] as f64 / cycles_to_secs(self.stats.elapsed)
    }

    /// Aborts per second.
    pub fn aborts_per_sec(&self) -> f64 {
        self.stats.total_aborts() as f64 / cycles_to_secs(self.stats.elapsed)
    }
}

/// Run a simulation: `gens[i]` feeds core `i`'s transaction queue.
pub fn run_sim(
    cfg: SimConfig,
    tables: Vec<SimTable>,
    gens: Vec<Box<dyn FnMut() -> TxnTemplate>>,
) -> SimReport {
    run_sim_full(cfg, tables, gens).0
}

/// Like [`run_sim`], additionally returning the final simulated database
/// so callers can inspect post-run tuple state (e.g. the lost-update
/// checks in the behavioural tests: a hot counter must equal its initial
/// value plus the committed bumps).
pub fn run_sim_full(
    cfg: SimConfig,
    tables: Vec<SimTable>,
    gens: Vec<Box<dyn FnMut() -> TxnTemplate>>,
) -> (SimReport, SimDb) {
    cfg.validate().expect("invalid sim config");
    let warmup = cfg.warmup;
    let end = cfg.warmup + cfg.measure;
    let measure = cfg.measure;
    let cores = cfg.cores;

    let mut sim = Sim::new(cfg, tables, gens);
    sim.start();

    let mut warmed = warmup == 0;
    while let Some(t) = sim.q.peek_time() {
        if t > end {
            break;
        }
        let ev = sim.q.pop().expect("peeked event exists");
        if !warmed && ev.time >= warmup {
            for c in sim.cores.iter_mut() {
                c.stats = RunStats::default();
                if c.parked {
                    c.blocked_since = c.blocked_since.max(warmup);
                }
            }
            sim.ts.allocated = 0;
            warmed = true;
        }
        match ev.kind {
            EventKind::Step { epoch } => sim.on_step(ev.core as usize, ev.time, epoch),
            EventKind::Timeout { wait_epoch } => {
                sim.on_timeout(ev.core as usize, ev.time, wait_epoch)
            }
        }
    }

    // Account the tail of any still-parked waits.
    let mut merged = RunStats::default();
    for c in sim.cores.iter_mut() {
        if c.parked {
            let since = c.blocked_since.max(warmup);
            let tail = end.saturating_sub(since);
            c.stats.phase_ns.record(abyss_common::Phase::Wait, tail);
        }
        c.stats.elapsed = measure;
        merged.merge(&c.stats);
    }
    merged.ts_allocated = merged.ts_allocated.max(sim.ts.allocated);
    let report = SimReport {
        stats: merged,
        cores,
        materialized_tuples: sim.db.materialized(),
    };
    (report, sim.db)
}

#[cfg(test)]
mod durability_tests {
    use abyss_common::rng::Xoshiro256;
    use abyss_common::{AccessOp, AccessSpec, CcScheme, TxnTemplate};

    use crate::config::{SimConfig, SimDurability};
    use crate::db::SimTable;
    use crate::run_sim;

    fn gen(seed: u64, rows: u64, reqs: usize, write_pct: f64) -> Box<dyn FnMut() -> TxnTemplate> {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(move || {
            let mut acc = Vec::with_capacity(reqs);
            let mut keys = Vec::with_capacity(reqs);
            while keys.len() < reqs {
                let k = rng.next_below(rows);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            for &k in &keys {
                let op = if rng.chance(write_pct) {
                    AccessOp::Update
                } else {
                    AccessOp::Read
                };
                acc.push(AccessSpec::fixed(0, k, op));
            }
            TxnTemplate::new(acc)
        })
    }

    fn point(scheme: CcScheme, cores: u32, durability: SimDurability) -> f64 {
        let mut cfg = SimConfig::new(scheme, cores);
        cfg.durability = durability;
        cfg.warmup = 100_000;
        cfg.measure = 2_000_000;
        let gens = (0..cores)
            .map(|c| gen(0xD0_0D ^ u64::from(c), 200_000, 8, 0.5))
            .collect();
        let r = run_sim(
            cfg,
            vec![SimTable {
                row_size: 1_000,
                counter_init: 0,
            }],
            gens,
        );
        r.txn_per_sec()
    }

    /// The fig_durability shape, pinned deterministically: group commit
    /// recovers ≥ 80% of logging-off throughput at 1024 cores; the
    /// per-commit force does not (its fsync dwarfs the transaction).
    #[test]
    fn group_commit_escapes_the_fsync_ceiling_at_1024_cores() {
        for scheme in [CcScheme::Silo, CcScheme::NoWait] {
            let off = point(scheme, 1024, SimDurability::Off);
            let group = point(scheme, 1024, SimDurability::GroupCommit);
            let fsync = point(scheme, 1024, SimDurability::PerCommitFsync);
            assert!(off > 0.0 && group > 0.0 && fsync > 0.0);
            assert!(
                group >= 0.8 * off,
                "{scheme}: group commit lost too much ({group:.0} vs off {off:.0})"
            );
            assert!(
                fsync < 0.8 * off,
                "{scheme}: per-commit fsync suspiciously cheap ({fsync:.0} vs off {off:.0})"
            );
            assert!(
                fsync < group,
                "{scheme}: force policy must trail group commit"
            );
        }
    }

    /// Read-only transactions log nothing, so durability costs them
    /// nothing either.
    #[test]
    fn read_only_commits_pay_no_log_cost() {
        let mut cfg = SimConfig::new(CcScheme::NoWait, 4);
        cfg.durability = SimDurability::PerCommitFsync;
        cfg.warmup = 50_000;
        cfg.measure = 500_000;
        let gens = (0..4u64).map(|c| gen(0xBEEF ^ c, 10_000, 4, 0.0)).collect();
        let r = run_sim(
            cfg,
            vec![SimTable {
                row_size: 1_000,
                counter_init: 0,
            }],
            gens,
        );
        assert!(r.stats.commits > 0);
        assert_eq!(r.stats.log_records, 0, "read-only run must not log");
        assert_eq!(r.stats.log_bytes, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abyss_common::rng::Xoshiro256;
    use abyss_common::{AccessOp, AccessSpec, CcScheme, TxnTemplate};

    fn gen(seed: u64, rows: u64, reqs: usize, write_pct: f64) -> Box<dyn FnMut() -> TxnTemplate> {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(move || {
            let mut acc = Vec::with_capacity(reqs);
            let mut keys = Vec::with_capacity(reqs);
            while keys.len() < reqs {
                let k = rng.next_below(rows);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            for &k in &keys {
                let op = if rng.chance(write_pct) {
                    AccessOp::Update
                } else {
                    AccessOp::Read
                };
                acc.push(AccessSpec::fixed(0, k, op));
            }
            TxnTemplate::new(acc)
        })
    }

    fn table() -> Vec<SimTable> {
        vec![SimTable {
            row_size: 1008,
            counter_init: 0,
        }]
    }

    fn quick_cfg(scheme: CcScheme, cores: u32) -> SimConfig {
        let mut c = SimConfig::new(scheme, cores);
        c.warmup = 200_000;
        c.measure = 2_000_000;
        c
    }

    fn run(scheme: CcScheme, cores: u32, rows: u64, write_pct: f64) -> SimReport {
        let gens = (0..cores)
            .map(|i| gen(1000 + u64::from(i), rows, 8, write_pct))
            .collect();
        run_sim(quick_cfg(scheme, cores), table(), gens)
    }

    #[test]
    fn every_scheme_commits_work() {
        for scheme in CcScheme::ALL {
            let r = run(scheme, 4, 100_000, 0.5);
            assert!(
                r.stats.commits > 100,
                "{scheme}: only {} commits",
                r.stats.commits
            );
        }
    }

    #[test]
    fn read_only_uniform_scales_with_cores() {
        for scheme in [CcScheme::NoWait, CcScheme::Timestamp] {
            let t1 = run(scheme, 1, 1_000_000, 0.0).txn_per_sec();
            let t8 = run(scheme, 8, 1_000_000, 0.0).txn_per_sec();
            assert!(
                t8 > 5.0 * t1,
                "{scheme}: read-only should scale ~linearly ({t1:.0} → {t8:.0})"
            );
        }
    }

    #[test]
    fn contention_hurts_throughput() {
        // 8 cores fighting over 16 rows vs 1M rows.
        for scheme in CcScheme::NON_PARTITIONED {
            let uncontended = run(scheme, 8, 1_000_000, 0.5).txn_per_sec();
            let contended = run(scheme, 8, 16, 0.9).txn_per_sec();
            assert!(
                contended < uncontended,
                "{scheme}: contention should hurt ({contended:.0} !< {uncontended:.0})"
            );
        }
    }

    #[test]
    fn no_wait_aborts_under_contention() {
        let r = run(CcScheme::NoWait, 8, 16, 0.9);
        assert!(
            r.stats.total_aborts() > 0,
            "NO_WAIT must abort on conflicts"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(CcScheme::WaitDie, 4, 1000, 0.5);
        let b = run(CcScheme::WaitDie, 4, 1000, 0.5);
        assert_eq!(a.stats.commits, b.stats.commits);
        assert_eq!(a.stats.aborts, b.stats.aborts);
        assert_eq!(a.stats.phase_ns, b.stats.phase_ns);
    }

    #[test]
    fn breakdown_covers_the_run() {
        let r = run(CcScheme::DlDetect, 4, 1000, 0.5);
        let total = r.stats.phase_ns.total();
        // 4 cores × measure window; allow slack for edge effects.
        let budget = 4 * 2_000_000u64;
        assert!(
            total > budget / 2 && total < budget * 11 / 10,
            "breakdown total {total} vs budget {budget}"
        );
    }
}
