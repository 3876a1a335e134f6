//! Golden-digest regression harness: pinned per-scheme state digests of
//! two seeded single-worker runs, recorded **before** the `CcProtocol`
//! monomorphization refactor and asserted bit-equal ever since.
//!
//! Single-worker bounded runs are pure functions of the generator seed
//! (no cross-thread interleaving), so these digests pin the *semantics*
//! of every scheme's admission, commit and abort logic — any refactor
//! that changes what a scheme commits (order, visibility, abort
//! decisions) flips a digest even when the usual invariant tests still
//! pass. Two workloads:
//!
//! * **engine mix** — a hand-rolled update/insert/delete/scan/counter mix
//!   driven through the public `WorkerCtx<P>` API, including
//!   ordered-index maintenance;
//! * **YCSB-E replay** — the generator-driven bounded benchmark loop
//!   (`run_workers_bounded`, the monomorphized path), scans + fresh-key
//!   inserts included.
//!
//! To regenerate after an *intentional* behavior change, run
//! `cargo test --test golden_digests -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use abyss::common::{CcScheme, PartId, TxnTemplate};
use abyss::core::schemes::{DlDetect, HStore, Mvcc, NoWait, Occ, Silo, TicToc, Timestamp, WaitDie};
use abyss::core::{
    dispatch_protocol, run_workers_bounded, CcProtocol, Database, EngineConfig, WorkerCtx,
};
use abyss::storage::{row, Catalog, Schema};
use abyss::workload::{ycsb, YcsbConfig, YcsbGen};

const TABLE: u32 = 0;
const BASE_ROWS: u64 = 200;
const MIX_TXNS: u64 = 120;

/// One scheme's pinned fingerprints: the engine-mix digest and the
/// YCSB-E replay's `(commits, aborts, tuples, scans, digest)`.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    scheme: &'static str,
    mix_digest: u64,
    ycsbe_commits: u64,
    ycsbe_aborts: u64,
    ycsbe_tuples: u64,
    ycsbe_scans: u64,
    ycsbe_digest: u64,
}

/// Recorded at commit f68b3c2 (pre-refactor enum-dispatch worker); the
/// `CcProtocol` monomorphization must reproduce every row bit-for-bit.
const GOLDEN: &[Golden] = &[
    Golden {
        scheme: "DL_DETECT",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "NO_WAIT",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "WAIT_DIE",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "TIMESTAMP",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "MVCC",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "OCC",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 1,
        ycsbe_tuples: 600,
        ycsbe_scans: 160,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "HSTORE",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 0,
        ycsbe_tuples: 600,
        ycsbe_scans: 159,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "SILO",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 1,
        ycsbe_tuples: 600,
        ycsbe_scans: 160,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
    Golden {
        scheme: "TICTOC",
        mix_digest: 0x9cadbec0d6ada6b3,
        ycsbe_commits: 150,
        ycsbe_aborts: 1,
        ycsbe_tuples: 600,
        ycsbe_scans: 160,
        ycsbe_digest: 0xc85f7c4b5958a5bf,
    },
];

fn parts(scheme: CcScheme) -> Vec<PartId> {
    if scheme == CcScheme::HStore {
        vec![0]
    } else {
        vec![]
    }
}

/// Deterministic mixed transaction `i`. Keys inserted at `i ≡ 0 (mod 5)`
/// are updated at `i+1` and deleted at `i+2`, so insert/update/delete
/// ordering and index withdrawal are all on the digest's hook; arm 3
/// range-scans through each scheme's phantom machinery.
fn mix_txn<P: CcProtocol>(ctx: &mut WorkerCtx<P>, i: u64) {
    let scheme = P::SCHEME;
    let p = parts(scheme);
    let r = ctx.run_txn(&p, |t| {
        t.update_counter(TABLE, (i * 37) % BASE_ROWS, 1, 1)?;
        match i % 5 {
            0 => t.insert(TABLE, 10_000 + i, |s, d| {
                row::set_u64(s, d, 0, 10_000 + i);
                row::set_u64(s, d, 1, i + 3);
            })?,
            1 if i >= 5 => {
                t.update(TABLE, 10_000 + (i - 1), |s, d| row::set_u64(s, d, 1, i * 7))?
            }
            2 if i >= 10 => t.delete(TABLE, 10_000 + (i - 2))?,
            3 => {
                let low = (i * 13) % BASE_ROWS;
                let (n, sum) = t.scan_sum_u64(TABLE, low, low + 9, 1)?;
                // Fold the scan's observation back into the state so a
                // wrong scan result flips the digest, not just stats.
                t.update(TABLE, low, |s, d| {
                    row::set_u64(s, d, 2, sum ^ n as u64);
                })?;
            }
            _ => {
                let v = t.read_u64(TABLE, (i * 13) % BASE_ROWS, 1)?;
                t.update(TABLE, (i * 13) % BASE_ROWS, |s, d| {
                    row::set_u64(s, d, 1, v + 1)
                })?;
            }
        }
        Ok(())
    });
    r.unwrap_or_else(|e| panic!("{scheme}: mix txn {i} failed: {e}"));
}

/// The hand-rolled mix through the public worker API; returns the final
/// state digest.
fn run_mix<P: CcProtocol>() -> u64 {
    let mut cat = Catalog::new();
    cat.add_ordered_table("t", Schema::key_plus_payload(3, 8), 4_000);
    let mut cfg = EngineConfig::new(P::SCHEME, 1);
    cfg.epoch_interval_us = 0; // manual epochs: nothing wall-clock-driven
    let db = Database::new(cfg, cat).unwrap();
    db.load_table(TABLE, 0..BASE_ROWS, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 1_000);
        row::set_u64(s, r, 2, 0);
    })
    .unwrap();
    let mut ctx = db.worker_as::<P>(0);
    for i in 0..MIX_TXNS {
        mix_txn(&mut ctx, i);
    }
    db.state_digest()
}

/// The generator-driven YCSB-E bounded run (the benchmark driver's
/// monomorphized path); returns `(commits, aborts, tuples, scans, digest)`.
fn run_ycsbe(scheme: CcScheme) -> (u64, u64, u64, u64, u64) {
    let cfg = YcsbConfig {
        table_rows: 2_000,
        theta: 0.6,
        insert_capacity: 2_000,
        ..YcsbConfig::ycsb_e(0.3)
    };
    let db = Database::new(EngineConfig::new(scheme, 1), ycsb::catalog(&cfg)).unwrap();
    db.load_table(0, 0..cfg.table_rows, ycsb::init_row).unwrap();
    let mut g = YcsbGen::new(cfg, 0xD00D_F00D);
    let gens = vec![Box::new(move || g.next_txn()) as Box<dyn FnMut() -> TxnTemplate + Send>];
    let out = run_workers_bounded(&db, gens, 150);
    (
        out.stats.commits,
        out.stats.total_aborts(),
        out.stats.tuples_committed,
        out.stats.scans,
        db.state_digest(),
    )
}

fn observe<P: CcProtocol>() -> Golden {
    let scheme = P::SCHEME;
    let mix_digest = run_mix::<P>();
    let (c, a, t, s, d) = run_ycsbe(scheme);
    Golden {
        scheme: scheme.name(),
        mix_digest,
        ycsbe_commits: c,
        ycsbe_aborts: a,
        ycsbe_tuples: t,
        ycsbe_scans: s,
        ycsbe_digest: d,
    }
}

fn assert_golden<P: CcProtocol>() {
    let scheme = P::SCHEME;
    let pinned = GOLDEN
        .iter()
        .find(|g| g.scheme == scheme.name())
        .unwrap_or_else(|| panic!("{scheme}: no golden row — regenerate the table"));
    let observed = observe::<P>();
    assert_eq!(
        &observed, pinned,
        "{scheme}: seeded run diverged from its pre-refactor golden digest"
    );
}

/// Every scheme must have a golden row and vice versa (a new scheme must
/// be pinned; a removed one must be unpinned).
#[test]
fn golden_table_covers_all_schemes() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|g| g.scheme).collect();
    let all: Vec<&str> = CcScheme::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(pinned, all, "golden table out of sync with CcScheme::ALL");
}

macro_rules! golden_tests {
    ($($name:ident => $P:ty,)*) => {
        $(
            #[test]
            fn $name() {
                assert_golden::<$P>();
            }
        )*
    };
}

golden_tests! {
    golden_dl_detect => DlDetect,
    golden_no_wait => NoWait,
    golden_wait_die => WaitDie,
    golden_timestamp => Timestamp,
    golden_mvcc => Mvcc,
    golden_occ => Occ,
    golden_hstore => HStore,
    golden_silo => Silo,
    golden_tictoc => TicToc,
}

/// Prints a fresh `GOLDEN` table. Run with
/// `cargo test --test golden_digests -- --ignored --nocapture` and paste
/// the output over the pinned table after an intentional change.
#[test]
#[ignore = "regeneration helper, not a regression test"]
fn regenerate_golden_digests() {
    for scheme in CcScheme::ALL {
        let g = dispatch_protocol!(scheme, P => observe::<P>());
        println!(
            "    Golden {{\n        scheme: \"{}\",\n        mix_digest: {:#018x},\n        \
             ycsbe_commits: {},\n        ycsbe_aborts: {},\n        ycsbe_tuples: {},\n        \
             ycsbe_scans: {},\n        ycsbe_digest: {:#018x},\n    }},",
            g.scheme,
            g.mix_digest,
            g.ycsbe_commits,
            g.ycsbe_aborts,
            g.ycsbe_tuples,
            g.ycsbe_scans,
            g.ycsbe_digest
        );
    }
}
