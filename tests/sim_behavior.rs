//! Integration tests of the simulator: determinism, paper-shaped
//! qualitative behaviours, and sim-vs-real agreement (the Fig. 3 method).

use abyss::common::{CcScheme, TsMethod};
use abyss::sim::{run_sim, SimConfig, SimTable};
use abyss::workload::ycsb::{YcsbConfig, YcsbGen};
use abyss_sim::SimReport;

/// CPU coordination between this binary's tests (libtest runs them on
/// parallel threads of one process): the heavyweight many-core sims take
/// the lock *shared* — free to overlap each other — while the wall-clock
/// sim-vs-real test takes it *exclusive*, so its timed 400 ms threaded
/// run is never starved by a 1024-core sweep chewing every host core
/// (which can flip its qualitative direction on small CI runners).
static CPU_HOG: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn heavy_sim() -> std::sync::RwLockReadGuard<'static, ()> {
    CPU_HOG.read().unwrap_or_else(|e| e.into_inner())
}

fn quiet_host() -> std::sync::RwLockWriteGuard<'static, ()> {
    CPU_HOG.write().unwrap_or_else(|e| e.into_inner())
}

fn ycsb_sim(
    scheme: CcScheme,
    cores: u32,
    cfg: &YcsbConfig,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimReport {
    let mut sim = SimConfig::new(scheme, cores);
    sim.warmup = 300_000;
    sim.measure = 3_000_000;
    tweak(&mut sim);
    let zipf = abyss::common::zipf::ZipfGen::new(cfg.table_rows, cfg.theta);
    let gens = (0..cores)
        .map(|c| {
            let mut g =
                YcsbGen::with_zipf(cfg.clone(), zipf.clone(), 5000 + u64::from(c)).for_worker(c);
            Box::new(move || g.next_txn()) as Box<dyn FnMut() -> abyss::common::TxnTemplate>
        })
        .collect();
    run_sim(
        sim,
        vec![SimTable {
            row_size: 1008,
            counter_init: 0,
        }],
        gens,
    )
}

#[test]
fn identical_configs_are_bit_identical() {
    let cfg = YcsbConfig {
        table_rows: 100_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let a = ycsb_sim(CcScheme::DlDetect, 16, &cfg, |_| {});
    let b = ycsb_sim(CcScheme::DlDetect, 16, &cfg, |_| {});
    assert_eq!(a.stats.commits, b.stats.commits);
    assert_eq!(a.stats.aborts, b.stats.aborts);
    assert_eq!(a.stats.phase_ns, b.stats.phase_ns);
    assert_eq!(a.materialized_tuples, b.materialized_tuples);
}

#[test]
fn scheduling_changes_alter_the_run() {
    // The sim seed only feeds workload generators (held constant here), so
    // perturb scheduling through the timestamp method of a T/O scheme.
    let cfg = YcsbConfig {
        table_rows: 100_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let a = ycsb_sim(CcScheme::Timestamp, 8, &cfg, |_| {});
    let b = ycsb_sim(CcScheme::Timestamp, 8, &cfg, |s| {
        s.ts_method = TsMethod::Mutex
    });
    assert_ne!(
        a.stats.commits, b.stats.commits,
        "scheduling change must alter the run"
    );
}

#[test]
fn thrashing_shape_theta08_peaks_early() {
    let _hog = heavy_sim();
    // Fig. 4's key claim: with high skew, waiting-based 2PL peaks at a few
    // dozen cores and *declines* beyond.
    let cfg = YcsbConfig {
        table_rows: 1_000_000,
        ordered_keys: true,
        ..YcsbConfig::write_intensive(0.8)
    };
    let tweak = |s: &mut SimConfig| {
        s.dl_detect = false;
        s.dl_timeout = None;
    };
    let t16 = ycsb_sim(CcScheme::DlDetect, 16, &cfg, tweak).txn_per_sec();
    let t512 = ycsb_sim(CcScheme::DlDetect, 512, &cfg, tweak).txn_per_sec();
    assert!(
        t512 < t16 * 2.0,
        "theta=0.8 thrashing: 512 cores ({t512:.0}) should not scale over 16 ({t16:.0})"
    );
}

#[test]
fn ts_allocation_caps_to_schemes_at_1024() {
    let _hog = heavy_sim();
    // Fig. 8's key claim: at 1024 cores, 2PL without timestamps outruns
    // the T/O schemes, and OCC (two timestamps) trails the other T/O.
    let cfg = YcsbConfig::read_only();
    let nw = ycsb_sim(CcScheme::NoWait, 1024, &cfg, |_| {}).txn_per_sec();
    let ts = ycsb_sim(CcScheme::Timestamp, 1024, &cfg, |_| {}).txn_per_sec();
    let occ = ycsb_sim(CcScheme::Occ, 1024, &cfg, |_| {}).txn_per_sec();
    assert!(
        nw > ts,
        "NO_WAIT ({nw:.0}) must beat TIMESTAMP ({ts:.0}) at 1024 cores"
    );
    assert!(
        ts > occ * 1.5,
        "TIMESTAMP ({ts:.0}) must clearly beat OCC ({occ:.0})"
    );
}

#[test]
fn clock_timestamps_lift_the_cap() {
    let _hog = heavy_sim();
    // §4.3: decentralized clocks remove the allocator bottleneck.
    let cfg = YcsbConfig::read_only();
    let atomic = ycsb_sim(CcScheme::Timestamp, 1024, &cfg, |_| {}).txn_per_sec();
    let clock = ycsb_sim(CcScheme::Timestamp, 1024, &cfg, |s| {
        s.ts_method = TsMethod::Clock
    })
    .txn_per_sec();
    assert!(
        clock > atomic * 1.2,
        "clock ({clock:.0}) should clearly beat atomic ({atomic:.0}) at 1024 cores"
    );
}

#[test]
fn hstore_wins_partitionable_single_partition_workloads() {
    // Fig. 14 at moderate core counts.
    let cores = 64;
    let base = YcsbConfig::write_intensive(0.0);
    let hs_cfg = YcsbConfig {
        parts: cores,
        ..base.clone()
    };
    let hs = ycsb_sim(CcScheme::HStore, cores, &hs_cfg, |s| s.hstore_parts = cores);
    let dl = ycsb_sim(CcScheme::DlDetect, cores, &base, |_| {});
    assert!(
        hs.txn_per_sec() > dl.txn_per_sec(),
        "H-STORE ({:.0}) should beat DL_DETECT ({:.0}) on single-partition workloads",
        hs.txn_per_sec(),
        dl.txn_per_sec()
    );
}

#[test]
fn multi_partition_transactions_hurt_hstore() {
    // Fig. 15a.
    let cores = 32;
    let single = YcsbConfig {
        parts: cores,
        multi_part_pct: 0.0,
        ..YcsbConfig::write_intensive(0.0)
    };
    let multi = YcsbConfig {
        parts: cores,
        multi_part_pct: 0.5,
        parts_per_txn: 4,
        ..YcsbConfig::write_intensive(0.0)
    };
    let t_single =
        ycsb_sim(CcScheme::HStore, cores, &single, |s| s.hstore_parts = cores).txn_per_sec();
    let t_multi =
        ycsb_sim(CcScheme::HStore, cores, &multi, |s| s.hstore_parts = cores).txn_per_sec();
    assert!(
        t_multi < t_single * 0.7,
        "50% MPT ({t_multi:.0}) must clearly undercut single-partition ({t_single:.0})"
    );
}

// ------------------------------------------------------- modern (SILO)

#[test]
fn silo_runs_at_1024_simulated_cores() {
    let _hog = heavy_sim();
    let cfg = YcsbConfig {
        table_rows: 1_000_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let r = ycsb_sim(CcScheme::Silo, 1024, &cfg, |_| {});
    assert!(
        r.stats.commits > 10_000,
        "SILO at 1024 cores: only {} commits",
        r.stats.commits
    );
    assert_eq!(
        r.stats.ts_allocated, 0,
        "SILO must allocate zero global timestamps"
    );
}

#[test]
fn silo_escapes_the_allocator_ceiling_at_1024() {
    let _hog = heavy_sim();
    // The fig_modern claim: with the default atomic allocator at 1024
    // cores, the T/O schemes are capped by timestamp allocation while
    // SILO (zero allocations) is not — it must clearly beat OCC (two
    // allocations) and TIMESTAMP (one).
    let cfg = YcsbConfig::read_only();
    let silo = ycsb_sim(CcScheme::Silo, 1024, &cfg, |_| {}).txn_per_sec();
    let ts = ycsb_sim(CcScheme::Timestamp, 1024, &cfg, |_| {}).txn_per_sec();
    let occ = ycsb_sim(CcScheme::Occ, 1024, &cfg, |_| {}).txn_per_sec();
    assert!(
        silo > ts,
        "SILO ({silo:.0}) must beat TIMESTAMP ({ts:.0}) at 1024 cores"
    );
    assert!(
        silo > occ * 1.5,
        "SILO ({silo:.0}) must clearly beat OCC ({occ:.0})"
    );
}

#[test]
fn silo_sim_is_deterministic() {
    let cfg = YcsbConfig {
        table_rows: 100_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let a = ycsb_sim(CcScheme::Silo, 64, &cfg, |_| {});
    let b = ycsb_sim(CcScheme::Silo, 64, &cfg, |_| {});
    assert_eq!(a.stats.commits, b.stats.commits);
    assert_eq!(a.stats.phase_ns, b.stats.phase_ns);
    assert_eq!(a.materialized_tuples, b.materialized_tuples);
}

#[test]
fn silo_sim_loses_no_updates_at_1024_cores() {
    let _hog = heavy_sim();
    // All 1024 cores hammer the same 4 hot counters with read-modify-write
    // increments; with zero warmup, each committed transaction bumps its
    // counter exactly once, so the final counters must equal the initial
    // value plus the commit count — the discrete-event analogue of the
    // threaded lost-update test, at the paper's full core count.
    use abyss::common::rng::Xoshiro256;
    use abyss::common::txn::{AccessOp, AccessSpec, KeySpec, TxnTemplate};
    use abyss::sim::run_sim_full;

    const HOT: u64 = 4;
    const INIT: u64 = 1000;
    let cores = 1024;
    let mut cfg = SimConfig::new(CcScheme::Silo, cores);
    cfg.warmup = 0;
    cfg.measure = 2_000_000;
    let gens = (0..cores)
        .map(|c| {
            let mut rng = Xoshiro256::seed_from(0xD0_1057 + u64::from(c));
            Box::new(move || {
                TxnTemplate::new(vec![AccessSpec {
                    table: 0,
                    key: KeySpec::Fixed(rng.next_below(HOT)),
                    op: AccessOp::UpdateCounter { slot: 0 },
                }])
            }) as Box<dyn FnMut() -> abyss::common::TxnTemplate>
        })
        .collect();
    let (report, mut db) = run_sim_full(
        cfg,
        vec![SimTable {
            row_size: 1008,
            counter_init: INIT,
        }],
        gens,
    );
    assert!(report.stats.commits > 0);
    let total: u64 = (0..HOT).map(|k| db.tuple(0, k).counter).sum();
    assert_eq!(
        total,
        INIT * HOT + report.stats.commits,
        "SILO lost updates in the simulator: {} commits, counters sum {}",
        report.stats.commits,
        total
    );
}

// ------------------------------------------------------ modern (TICTOC)

#[test]
fn tictoc_runs_at_1024_simulated_cores() {
    let _hog = heavy_sim();
    let cfg = YcsbConfig {
        table_rows: 1_000_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let r = ycsb_sim(CcScheme::TicToc, 1024, &cfg, |_| {});
    assert!(
        r.stats.commits > 10_000,
        "TICTOC at 1024 cores: only {} commits",
        r.stats.commits
    );
    assert_eq!(
        r.stats.ts_allocated, 0,
        "TICTOC must allocate zero global timestamps"
    );
    assert!(
        r.stats.rts_extensions > 0,
        "a contended write mix must exercise the rts-extension path"
    );
}

#[test]
fn tictoc_escapes_the_allocator_ceiling_at_1024() {
    let _hog = heavy_sim();
    // The fig_modern claim, extended: like SILO, TICTOC allocates zero
    // timestamps, so at 1024 cores it must clearly beat the allocator-
    // capped T/O schemes.
    let cfg = YcsbConfig::read_only();
    let tictoc = ycsb_sim(CcScheme::TicToc, 1024, &cfg, |_| {}).txn_per_sec();
    let ts = ycsb_sim(CcScheme::Timestamp, 1024, &cfg, |_| {}).txn_per_sec();
    let occ = ycsb_sim(CcScheme::Occ, 1024, &cfg, |_| {}).txn_per_sec();
    assert!(
        tictoc > ts,
        "TICTOC ({tictoc:.0}) must beat TIMESTAMP ({ts:.0}) at 1024 cores"
    );
    assert!(
        tictoc > occ * 1.5,
        "TICTOC ({tictoc:.0}) must clearly beat OCC ({occ:.0})"
    );
}

#[test]
fn tictoc_sim_is_deterministic() {
    let cfg = YcsbConfig {
        table_rows: 100_000,
        ..YcsbConfig::write_intensive(0.6)
    };
    let a = ycsb_sim(CcScheme::TicToc, 64, &cfg, |_| {});
    let b = ycsb_sim(CcScheme::TicToc, 64, &cfg, |_| {});
    assert_eq!(a.stats.commits, b.stats.commits);
    assert_eq!(a.stats.phase_ns, b.stats.phase_ns);
    assert_eq!(a.stats.rts_extensions, b.stats.rts_extensions);
    assert_eq!(a.materialized_tuples, b.materialized_tuples);
}

/// The ordered-index acceptance gate: the simulator must accept
/// `AccessOp::Scan` at the paper's 1024-core scale, for every scheme, and
/// actually execute scans (scan-heavy YCSB-E mix).
#[test]
fn simulator_accepts_scans_at_1024_cores() {
    let _hog = heavy_sim();
    let cfg = YcsbConfig {
        table_rows: 1_000_000,
        ..YcsbConfig::ycsb_e(0.5)
    };
    for scheme in CcScheme::ALL {
        let mut cfg = cfg.clone();
        if scheme == CcScheme::HStore {
            cfg.parts = 1024;
        }
        let r = ycsb_sim(scheme, 1024, &cfg, |s| {
            s.warmup = 100_000;
            s.measure = 1_000_000;
        });
        assert!(
            r.stats.commits > 0,
            "{scheme}: no commits at 1024 cores with scans"
        );
        assert!(r.stats.scans > 0, "{scheme}: no scans executed");
    }
}

/// The Fig. 3 method: the simulator and the real engine must agree on
/// qualitative ordering at host-scale core counts.
#[test]
fn sim_and_real_agree_on_contention_direction() {
    let _quiet = quiet_host();
    use abyss::core::{run_workers, Database, EngineConfig};
    use abyss::workload::ycsb;
    use std::time::Duration;

    let threads = 4;
    // Maximal contrast so scheduler noise from parallel tests cannot flip
    // the direction: uniform read-only vs all-write on a tiny hot set.
    let low_cfg = || YcsbConfig {
        table_rows: 50_000,
        ..YcsbConfig::read_only()
    };
    let high_cfg = || YcsbConfig {
        table_rows: 1_000,
        read_pct: 0.0,
        theta: 0.85,
        ..YcsbConfig::default()
    };
    let run_real = |cfg: YcsbConfig| {
        let db = Database::new(
            EngineConfig::new(CcScheme::NoWait, threads),
            ycsb::catalog(&cfg),
        )
        .unwrap();
        db.load_table(0, 0..cfg.table_rows, ycsb::init_row).unwrap();
        let zipf = abyss::common::zipf::ZipfGen::new(cfg.table_rows, cfg.theta);
        let gens = (0..threads)
            .map(|w| {
                let mut g = YcsbGen::with_zipf(cfg.clone(), zipf.clone(), u64::from(w) + 1);
                Box::new(move || g.next_txn())
                    as Box<dyn FnMut() -> abyss::common::TxnTemplate + Send>
            })
            .collect();
        run_workers(
            &db,
            gens,
            Duration::from_millis(50),
            Duration::from_millis(400),
        )
        .txn_per_sec()
    };
    // Wall-clock halves take the best of three trials: on an oversubscribed
    // host one descheduled measurement window can otherwise flip the
    // direction (observed flaking at ~1 in 4 with single samples).
    let best_real =
        |cfg: &dyn Fn() -> YcsbConfig| (0..3).map(|_| run_real(cfg())).fold(f64::MIN, f64::max);
    let sim_low = ycsb_sim(CcScheme::NoWait, threads, &low_cfg(), |_| {}).txn_per_sec();
    let sim_high = ycsb_sim(CcScheme::NoWait, threads, &high_cfg(), |_| {}).txn_per_sec();
    let real_low = best_real(&low_cfg);
    let real_high = best_real(&high_cfg);
    assert!(
        sim_high < sim_low && real_high < real_low,
        "both stacks must agree contention hurts: sim {sim_low:.0}→{sim_high:.0}, real {real_low:.0}→{real_high:.0}"
    );
}
