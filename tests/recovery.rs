//! Crash-recovery conformance: kill the engine mid-run, replay the WAL,
//! and prove the recovered state is exactly a prefix-consistent epoch
//! boundary of the reference execution.
//!
//! * **Digest determinism** (all nine schemes): a seeded single-worker
//!   run with manual epoch fences is "killed" (dropped without the clean
//!   shutdown flush). Recovery must restore precisely the commits of the
//!   durable epochs — digest-equal to a reference run that executes only
//!   that prefix — and the unflushed tail must be gone.
//! * **Replay idempotence**: recovering twice (and recovering an
//!   already-recovered directory) converges to the same digest.
//! * **Append-after-recovery**: a recovered engine keeps logging; a
//!   second crash+recovery round-trips the combined history.
//! * **Multi-worker kill smoke** (NO_WAIT + SILO): concurrent increment
//!   workload killed with live background ticker/flusher threads; the
//!   recovered sum must equal the initial sum plus *exactly* the replayed
//!   increment count — any torn or half-applied record breaks it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use abyss::common::{CcScheme, PartId};
use abyss::core::{Database, EngineConfig, TxnError, WorkerCtx};
use abyss::storage::{row, Catalog, FsyncPolicy, Schema};

const TABLE: u32 = 0;
const BASE_ROWS: u64 = 200;
const INITIAL: u64 = 1_000;

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("abyss-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A database over one ordered table; logging (manual group fences) when
/// `log_dir` is given.
fn build_db(scheme: CcScheme, workers: u32, log_dir: Option<&Path>) -> Arc<Database> {
    build_db_with(scheme, workers, log_dir, FsyncPolicy::Group)
}

fn build_db_with(
    scheme: CcScheme,
    workers: u32,
    log_dir: Option<&Path>,
    fsync: FsyncPolicy,
) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_ordered_table("t", Schema::key_plus_payload(2, 8), 8_000);
    let mut cfg = EngineConfig::new(scheme, workers);
    cfg.epoch_interval_us = 0; // epochs advance only by hand
    if let Some(dir) = log_dir {
        cfg = cfg.with_logging(dir, fsync);
        cfg.log.group_interval_us = 0; // flushes only by hand
                                       // Drain every append to the OS immediately: the killed run's
                                       // non-durable tail then exists on disk (past the durable fence),
                                       // which is exactly what recovery's truncation must cut away.
        cfg.log.group_max_bytes = 1;
    }
    let db = Database::new(cfg, cat).unwrap();
    db.load_table(TABLE, 0..BASE_ROWS, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, INITIAL);
    })
    .unwrap();
    db
}

fn parts(scheme: CcScheme) -> Vec<PartId> {
    if scheme == CcScheme::HStore {
        vec![0]
    } else {
        vec![]
    }
}

/// Deterministic transaction `i`: a seeded mix of updates, inserts and
/// deletes (the same `i` always produces the same committed effect).
fn apply_txn(ctx: &mut WorkerCtx, scheme: CcScheme, i: u64) {
    let p = parts(scheme);
    let r = ctx.run_txn(&p, |t| {
        // Always bump a base row (spread deterministically).
        t.update_counter(TABLE, (i * 37) % BASE_ROWS, 1, 1)?;
        match i % 4 {
            // Insert a fresh key...
            0 => t.insert(TABLE, 10_000 + i, |s, d| {
                row::set_u64(s, d, 0, 10_000 + i);
                row::set_u64(s, d, 1, i);
            })?,
            // ...later overwrite it...
            1 if i >= 4 => {
                t.update(TABLE, 10_000 + (i - 1), |s, d| row::set_u64(s, d, 1, i * 7))?
            }
            // ...and later still delete some of them.
            2 if i >= 8 => t.delete(TABLE, 10_000 + (i - 2))?,
            _ => {
                let v = t.read_u64(TABLE, (i * 13) % BASE_ROWS, 1)?;
                t.update(TABLE, (i * 13) % BASE_ROWS, |s, d| {
                    row::set_u64(s, d, 1, v + 1)
                })?;
            }
        }
        Ok(())
    });
    r.unwrap_or_else(|e| panic!("{scheme}: txn {i} failed: {e}"));
}

const BATCH: u64 = 10;
const DURABLE_BATCHES: u64 = 5;
const TAIL_TXNS: u64 = 10;

/// Run the kill scenario: `DURABLE_BATCHES` batches each followed by an
/// epoch advance + group fence, then `TAIL_TXNS` more commits that never
/// reach a fence — then drop everything (the kill).
fn killed_run(scheme: CcScheme, dir: &Path) {
    let db = build_db(scheme, 1, Some(dir));
    let mut ctx = db.worker(0);
    for b in 0..DURABLE_BATCHES {
        for i in b * BATCH..(b + 1) * BATCH {
            apply_txn(&mut ctx, scheme, i);
        }
        db.epoch_manager().advance();
        db.log_group_flush();
    }
    for i in DURABLE_BATCHES * BATCH..DURABLE_BATCHES * BATCH + TAIL_TXNS {
        apply_txn(&mut ctx, scheme, i);
    }
    // Kill: no clean-shutdown flush; the tail epoch's records are only in
    // the in-memory shard buffers and die with the process image.
}

/// The reference: execute exactly the durable prefix, no logging.
fn reference_digest(scheme: CcScheme) -> u64 {
    let db = build_db(scheme, 1, None);
    let mut ctx = db.worker(0);
    for i in 0..DURABLE_BATCHES * BATCH {
        apply_txn(&mut ctx, scheme, i);
    }
    db.state_digest()
}

fn recover_matches_durable_prefix(scheme: CcScheme) {
    let dir = tmp_dir(&format!("digest-{scheme}"));
    killed_run(scheme, &dir);

    let db = build_db(scheme, 1, Some(&dir));
    let report = db.recover_from_log().unwrap();
    assert_eq!(
        report.durable_epoch, DURABLE_BATCHES,
        "{scheme}: recovery must stop at the last fully-durable epoch"
    );
    assert!(
        report.records_applied >= DURABLE_BATCHES * BATCH,
        "{scheme}: too few records ({}) for {} committed txns",
        report.records_applied,
        DURABLE_BATCHES * BATCH
    );
    assert!(
        report.truncated_shards >= 1,
        "{scheme}: the non-durable tail must be truncated"
    );
    let recovered = db.state_digest();
    let reference = reference_digest(scheme);
    assert_eq!(
        recovered, reference,
        "{scheme}: recovered state diverges from the durable-prefix reference"
    );

    // Replay idempotence: a second recovery of the (now truncated) log —
    // on top of the already-recovered state — must change nothing.
    let again = db.recover_from_log().unwrap();
    assert_eq!(again.durable_epoch, report.durable_epoch);
    assert_eq!(again.records_applied, report.records_applied, "{scheme}");
    assert_eq!(
        db.state_digest(),
        reference,
        "{scheme}: replay not idempotent"
    );

    // And a recovery into a *fresh* database converges to the same state.
    let db2 = build_db(scheme, 1, Some(&dir));
    db2.recover_from_log().unwrap();
    assert_eq!(
        db2.state_digest(),
        reference,
        "{scheme}: re-recovery diverges"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

macro_rules! digest_tests {
    ($($name:ident => $scheme:expr,)*) => {$(
        #[test]
        fn $name() {
            recover_matches_durable_prefix($scheme);
        }
    )*};
}

digest_tests! {
    recover_digest_dl_detect => CcScheme::DlDetect,
    recover_digest_no_wait => CcScheme::NoWait,
    recover_digest_wait_die => CcScheme::WaitDie,
    recover_digest_timestamp => CcScheme::Timestamp,
    recover_digest_mvcc => CcScheme::Mvcc,
    recover_digest_occ => CcScheme::Occ,
    recover_digest_hstore => CcScheme::HStore,
    recover_digest_silo => CcScheme::Silo,
    recover_digest_tictoc => CcScheme::TicToc,
}

/// The digest matrix above must cover every scheme (sync guard, same
/// pattern as the conformance harness).
#[test]
fn digest_matrix_covers_all_schemes() {
    let covered = [
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
    assert_eq!(covered, CcScheme::ALL);
}

#[test]
fn recovered_engine_keeps_logging_after_a_second_crash() {
    let scheme = CcScheme::Silo;
    let dir = tmp_dir("two-crashes");
    killed_run(scheme, &dir);

    // Crash 1 → recover, run more (epochs now continue past the replayed
    // ones), fence, crash again mid-tail.
    let db = build_db(scheme, 1, Some(&dir));
    db.recover_from_log().unwrap();
    let resumed_epoch = db.epoch_manager().current();
    assert!(
        resumed_epoch > DURABLE_BATCHES,
        "recovery must advance epochs past the replayed history"
    );
    let mut ctx = db.worker(0);
    for i in 100..110 {
        apply_txn(&mut ctx, scheme, i);
    }
    db.epoch_manager().advance();
    db.log_group_flush();
    for i in 110..115 {
        apply_txn(&mut ctx, scheme, i); // lost tail
    }
    let expected = {
        // Reference: durable prefix of crash 1 + the fenced continuation.
        let r = build_db(scheme, 1, None);
        let mut c = r.worker(0);
        for i in 0..DURABLE_BATCHES * BATCH {
            apply_txn(&mut c, scheme, i);
        }
        for i in 100..110 {
            apply_txn(&mut c, scheme, i);
        }
        r.state_digest()
    };
    drop(ctx);
    drop(db);

    // Crash 2 → recover: both histories replay, the lost tails do not.
    let db2 = build_db(scheme, 1, Some(&dir));
    db2.recover_from_log().unwrap();
    assert_eq!(db2.state_digest(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-worker kill: pure-increment workload, live ticker + flusher
/// threads, dropped without a clean shutdown. The recovered sum must be
/// initial + records_applied — each commit logs the full counter image,
/// so per-key last-writer-wins replay counts every durable increment
/// exactly once; any torn record or mis-ordered replay breaks the sum.
fn multiworker_kill_and_recover(scheme: CcScheme) {
    const WORKERS: u32 = 4;
    const TXNS_PER_WORKER: u64 = 2_000;
    let dir = tmp_dir(&format!("mw-{scheme}"));
    {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 4_000);
        let mut cfg = EngineConfig::new(scheme, WORKERS).with_logging(&dir, FsyncPolicy::Group);
        cfg.epoch_interval_us = 500;
        cfg.log.group_interval_us = 1_000;
        let db = Database::new(cfg, cat).unwrap();
        db.load_table(TABLE, 0..BASE_ROWS, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, INITIAL);
        })
        .unwrap();
        // One warm-up commit pins an epoch the first record cannot exceed:
        // waiting for the durable epoch to reach it below guarantees the
        // background flusher fenced at least that record before the kill
        // (a fast run would otherwise finish before the first 1 ms fence
        // and recover nothing).
        let first_commit_epoch = {
            let mut ctx = db.worker(0);
            let r: Result<u64, TxnError> = ctx.run_txn(&[], |t| t.update_counter(TABLE, 0, 1, 1));
            r.unwrap();
            db.epoch_manager().current()
        };
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut ctx = db.worker(w);
                    for i in 0..TXNS_PER_WORKER {
                        let key = (u64::from(w) * 7919 + i * 13) % BASE_ROWS;
                        let r: Result<u64, TxnError> =
                            ctx.run_txn(&[], |t| t.update_counter(TABLE, key, 1, 1));
                        r.unwrap();
                    }
                });
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while db.durable_epoch().unwrap_or(0) < first_commit_epoch {
            assert!(
                std::time::Instant::now() < deadline,
                "{scheme}: background flusher never fenced the first commit's epoch"
            );
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        // Kill: drop with any post-fence tail records still in memory.
    }
    let db = {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 4_000);
        let mut cfg = EngineConfig::new(scheme, WORKERS).with_logging(&dir, FsyncPolicy::Group);
        cfg.epoch_interval_us = 0;
        cfg.log.group_interval_us = 0;
        let db = Database::new(cfg, cat).unwrap();
        db.load_table(TABLE, 0..BASE_ROWS, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, INITIAL);
        })
        .unwrap();
        db
    };
    let report = db.recover_from_log().unwrap();
    assert!(
        report.records_applied > 0,
        "{scheme}: background group commit never made anything durable"
    );
    let sum = db.sum_column(TABLE, 1);
    assert_eq!(
        sum,
        BASE_ROWS * INITIAL + report.records_applied,
        "{scheme}: recovered increments do not match replayed records"
    );
    // Idempotence under the concurrent history too.
    let d1 = db.state_digest();
    db.recover_from_log().unwrap();
    assert_eq!(
        db.state_digest(),
        d1,
        "{scheme}: concurrent replay not idempotent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multiworker_kill_recover_no_wait() {
    multiworker_kill_and_recover(CcScheme::NoWait);
}

#[test]
fn multiworker_kill_recover_silo() {
    multiworker_kill_and_recover(CcScheme::Silo);
}

#[test]
fn per_commit_fsync_recovers_every_commit() {
    // Under EveryCommit, durability is per commit, not per epoch: a kill
    // immediately after the last commit must lose nothing.
    let scheme = CcScheme::NoWait;
    let dir = tmp_dir("percommit");
    {
        let db = build_db_with(scheme, 1, Some(&dir), FsyncPolicy::EveryCommit);
        let mut ctx = db.worker(0);
        for i in 0..25 {
            apply_txn(&mut ctx, scheme, i);
        }
        // Kill with zero group fences ever run.
    }
    let db = build_db_with(scheme, 1, Some(&dir), FsyncPolicy::EveryCommit);
    let report = db.recover_from_log().unwrap();
    assert_eq!(report.records_applied, 25);
    let reference = {
        let r = build_db(scheme, 1, None);
        let mut c = r.worker(0);
        for i in 0..25 {
            apply_txn(&mut c, scheme, i);
        }
        r.state_digest()
    };
    assert_eq!(db.state_digest(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
