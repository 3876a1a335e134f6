//! Deterministic serializability tests for the real engine.
//!
//! The randomized cross-scheme anomaly matrix (lost updates, write skew,
//! read-only snapshot anomalies, double-scan phantoms, delete
//! resurrection — with fault-injection power checks) lives in
//! `tests/conformance.rs`. This file keeps:
//!
//! * **read atomicity** — a transaction reading two tuples maintained as
//!   equal by writers must never observe them unequal (torn reads), for
//!   every scheme;
//! * **deterministic gap anomalies** the randomized matrix cannot
//!   construct on demand: T/O inserts/scans racing committed newer scans
//!   and deletes, and the OCC-family cross-insert write skew that
//!   node-set validation must catch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use abyss_common::{CcScheme, PartId};
use abyss_core::schemes::{DlDetect, HStore, Mvcc, NoWait, Occ, Silo, TicToc, Timestamp, WaitDie};
use abyss_core::{CcProtocol, Database, EngineConfig};
use abyss_storage::{row, Catalog, Schema};

const ACCOUNTS: u64 = 64;
const WORKERS: u32 = 4;
const INITIAL: u64 = 1_000;

fn build_db(scheme: CcScheme) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_table("accounts", Schema::key_plus_payload(2, 8), ACCOUNTS * 2);
    let mut cfg = EngineConfig::new(scheme, WORKERS);
    // Keep DL_DETECT aggressive so the test finishes fast even when the
    // random transfers deadlock.
    cfg.dl_timeout_us = 100;
    let db = Database::new(cfg, cat).unwrap();
    db.load_table(0, 0..ACCOUNTS, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, INITIAL); // balance
                                        // Mirror column for the read-atomicity check: must start *equal*
                                        // to column 1 — the invariant holds from the initial load onward.
        row::set_u64(s, r, 2, INITIAL);
    })
    .unwrap();
    db
}

fn partitions_for(scheme: CcScheme, keys: &[u64]) -> Vec<PartId> {
    if scheme != CcScheme::HStore {
        return vec![];
    }
    let mut p: Vec<PartId> = keys
        .iter()
        .map(|k| (k % u64::from(WORKERS)) as PartId)
        .collect();
    p.sort_unstable();
    p.dedup();
    p
}

/// Cheap deterministic per-thread RNG.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn read_atomicity_check<P: CcProtocol>() {
    let scheme = P::SCHEME;
    let db = build_db(scheme);
    let stop = AtomicBool::new(false);
    // Writers keep columns 1 and 2 of each tuple equal; readers must never
    // see them differ.
    std::thread::scope(|s| {
        for w in 0..2 {
            let db = Arc::clone(&db);
            let stop = &stop;
            s.spawn(move || {
                let mut ctx = db.worker_as::<P>(w);
                let mut rng = Rng(42 + u64::from(w));
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next() % 4;
                    let parts = partitions_for(scheme, &[key]);
                    ctx.run_txn(&parts, |t| {
                        t.update(0, key, |s, d| {
                            let v = row::get_u64(s, d, 1) + 1;
                            row::set_u64(s, d, 1, v);
                            row::set_u64(s, d, 2, v);
                        })
                    })
                    .unwrap();
                }
            });
        }
        for w in 2..WORKERS {
            let db = Arc::clone(&db);
            let stop = &stop;
            s.spawn(move || {
                let mut ctx = db.worker_as::<P>(w);
                let mut rng = Rng(7 + u64::from(w));
                for _ in 0..1000 {
                    let key = rng.next() % 4;
                    let parts = partitions_for(scheme, &[key]);
                    let (a, b) = ctx
                        .run_txn(&parts, |t| {
                            let a = t.read_u64(0, key, 1)?;
                            let b = t.read_u64(0, key, 2)?;
                            Ok((a, b))
                        })
                        .unwrap();
                    assert_eq!(a, b, "{scheme}: torn read on key {key}");
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
}

/// Deterministic T/O gap anomalies the randomized phantom check cannot
/// construct on demand: an insert by an *older* timestamp landing after a
/// *newer* scan committed (leaf `scan_rts` must kill the inserter), and a
/// scan by an older timestamp arriving after a newer delete committed
/// (leaf `del_wts` must kill the scanner).
fn to_gap_db(scheme: CcScheme) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_ordered_table("scanned", Schema::key_plus_payload(1, 8), 256);
    let db = Database::new(EngineConfig::new(scheme, 2), cat).unwrap();
    db.load_table(0, (0..16u64).map(|k| k * 2), |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 1);
    })
    .unwrap();
    db
}

fn older_insert_after_newer_scan_aborts<P: CcProtocol>() {
    let scheme = P::SCHEME;
    let db = to_gap_db(scheme);
    let mut old = db.worker_as::<P>(0);
    let mut new = db.worker_as::<P>(1);
    old.begin(&[], None).unwrap(); // smaller timestamp
    new.begin(&[], None).unwrap();
    new.scan(0, 0, 40, |_, _, _| {}).unwrap();
    new.commit().unwrap();
    // The older transaction now tries to plant a key inside the range the
    // newer one already scanned and committed: it must not commit.
    old.insert(0, 5, |s, d| {
        row::set_u64(s, d, 0, 5);
        row::set_u64(s, d, 1, 1);
    })
    .unwrap();
    let r = old.commit();
    assert!(
        r.is_err(),
        "{scheme}: older insert behind a committed newer scan must abort"
    );
    assert!(db.peek(0, 5).is_err(), "{scheme}: phantom key was planted");
}

fn older_scan_after_newer_delete_aborts<P: CcProtocol>() {
    let scheme = P::SCHEME;
    let db = to_gap_db(scheme);
    let mut old = db.worker_as::<P>(0);
    let mut new = db.worker_as::<P>(1);
    old.begin(&[], None).unwrap(); // smaller timestamp
    new.begin(&[], None).unwrap();
    new.delete(0, 8).unwrap();
    new.commit().unwrap();
    // The older scan can no longer reconstruct key 8 (no version store for
    // removed index entries): it must abort rather than silently miss it.
    let r = old.scan(0, 0, 40, |_, _, _| {});
    assert!(
        r.is_err(),
        "{scheme}: older scan across a newer committed delete must abort"
    );
    old.abort(abyss_common::AbortReason::UserAbort);
}

/// OCC/SILO/TICTOC cross-insert write skew: two transactions each scan the
/// same range and each insert a fresh key into it. Whichever commits
/// second must fail node-set validation — its scan missed the other's
/// committed insert — and a transaction inserting into its *own* scanned
/// range must still commit (the own-insert node-set refresh must not
/// absorb foreign bumps, and must not self-abort either).
fn occ_cross_insert_write_skew<P: CcProtocol>() {
    let scheme = P::SCHEME;
    // Few enough rows that the inserts below don't split the leaf — a
    // split is a legitimate (conservative) extra abort that would mask
    // what this test pins down.
    let mut cat = Catalog::new();
    cat.add_ordered_table("scanned", Schema::key_plus_payload(1, 8), 256);
    let db = Database::new(EngineConfig::new(scheme, 2), cat).unwrap();
    db.load_table(0, (0..8u64).map(|k| k * 2), |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 1);
    })
    .unwrap();
    let mut a = db.worker_as::<P>(0);
    let mut b = db.worker_as::<P>(1);
    a.begin(&[], None).unwrap();
    b.begin(&[], None).unwrap();
    a.scan(0, 0, 100, |_, _, _| {}).unwrap();
    b.scan(0, 0, 100, |_, _, _| {}).unwrap();
    a.insert(0, 41, |s, d| row::set_u64(s, d, 0, 41)).unwrap();
    b.insert(0, 43, |s, d| row::set_u64(s, d, 0, 43)).unwrap();
    a.commit().unwrap();
    let r = b.commit();
    assert!(
        r.is_err(),
        "{scheme}: committed a scan that missed a concurrent committed insert"
    );
    assert!(db.peek(0, 41).is_ok());
    assert!(
        db.peek(0, 43).is_err(),
        "{scheme}: aborted insert left the key behind"
    );
    // Self-insert into a self-scanned range commits fine.
    a.begin(&[], None).unwrap();
    a.scan(0, 0, 100, |_, _, _| {}).unwrap();
    a.insert(0, 45, |s, d| row::set_u64(s, d, 0, 45)).unwrap();
    a.commit()
        .unwrap_or_else(|e| panic!("{scheme}: self-insert into own scan range aborted: {e}"));
}

#[test]
fn occ_cross_insert_write_skew_aborts() {
    occ_cross_insert_write_skew::<Occ>();
}

#[test]
fn silo_cross_insert_write_skew_aborts() {
    occ_cross_insert_write_skew::<Silo>();
}

#[test]
fn tictoc_cross_insert_write_skew_aborts() {
    occ_cross_insert_write_skew::<TicToc>();
}

#[test]
fn timestamp_gap_rts_blocks_older_inserter() {
    older_insert_after_newer_scan_aborts::<Timestamp>();
}

#[test]
fn mvcc_gap_rts_blocks_older_inserter() {
    older_insert_after_newer_scan_aborts::<Mvcc>();
}

#[test]
fn timestamp_del_wts_blocks_older_scanner() {
    older_scan_after_newer_delete_aborts::<Timestamp>();
}

#[test]
fn mvcc_del_wts_blocks_older_scanner() {
    older_scan_after_newer_delete_aborts::<Mvcc>();
}

macro_rules! scheme_tests {
    ($($name:ident => $P:ty),+ $(,)?) => {
        const LISTED_SCHEMES: &[CcScheme] = &[$(<$P>::SCHEME),+];

        /// Sync guard: the per-scheme test list must track `CcScheme::ALL`
        /// exactly, so a new scheme cannot be silently skipped.
        #[test]
        fn read_atomicity_covers_every_scheme() {
            assert_eq!(
                LISTED_SCHEMES,
                &CcScheme::ALL,
                "read-atomicity scheme list out of sync with CcScheme::ALL"
            );
        }

        mod read_atomicity {
            use super::*;
            $(#[test] fn $name() { read_atomicity_check::<$P>(); })+
        }
    };
}

scheme_tests! {
    dl_detect => DlDetect,
    no_wait => NoWait,
    wait_die => WaitDie,
    timestamp => Timestamp,
    mvcc => Mvcc,
    occ => Occ,
    hstore => HStore,
    silo => Silo,
    tictoc => TicToc,
}
