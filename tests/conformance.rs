//! Cross-scheme serializability **conformance harness** — the fixed,
//! automated correctness toll every concurrency-control scheme pays.
//!
//! One table of anomaly generators ([`ANOMALIES`]) runs against **all
//! nine schemes** (a sync guard pins the matrix to `CcScheme::ALL`, so a
//! newly added scheme cannot silently skip it):
//!
//! * **lost update** — concurrent read-modify-write increments of hot
//!   keys must all survive;
//! * **write skew** — two transactions reading a two-key constraint and
//!   each writing a different key must not both slip past it;
//! * **read-only snapshot anomaly** — a read-only transaction summing
//!   accounts under concurrent transfers must always observe a total a
//!   serial execution could produce;
//! * **double-scan phantom** — a committed transaction range-scanning the
//!   same window twice must see identical key sets under concurrent
//!   insert/delete churn (≥ 1000 randomized committed trials per scheme);
//! * **next-key delete resurrection** — a committed delete must never
//!   resurface through stale row references, aborted transactions, or
//!   subsequent scans.
//!
//! Every generator runs in two modes. [`Mode::Txn`] drives the engine
//! through proper transactions: the matrix asserts the anomaly is
//! **impossible**. [`Mode::Split`] is the fault injection: the same logic
//! with its reads and dependent writes deliberately split across separate
//! transactions — an application-level race serializability cannot (and
//! must not) mask. The `power_*` tests assert each detector **fires** in
//! split mode under every scheme, proving the detectors can actually see
//! the anomalies they guard against; a detector that stays silent there
//! is dead code, not protection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use abyss::common::{CcScheme, PartId};
use abyss::core::{run_workers_bounded, Database, EngineConfig, WorkerCtx};
use abyss::storage::{row, Catalog, Schema};

const WORKERS: u32 = 4;
const INITIAL: u64 = 1_000;

/// Every conformance database runs with write-ahead logging enabled
/// (group-commit policy, background flusher): the anomaly matrix then
/// doubles as the "full conformance suite passes with logging on" gate,
/// exercising the redo-capture and serial-point paths of all nine
/// schemes under real multi-worker contention.
fn logged(mut cfg: EngineConfig) -> EngineConfig {
    static N: AtomicU64 = AtomicU64::new(0);
    static SWEEP_STALE: std::sync::Once = std::sync::Once::new();
    // Databases outlive this helper, so per-run directories cannot be
    // removed here; instead each run sweeps every previous run's
    // leftovers (distinguished by pid) once, so the temp dir never
    // accumulates across runs.
    SWEEP_STALE.call_once(|| {
        let mine = format!("abyss-conformance-wal-{}-", std::process::id());
        if let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("abyss-conformance-wal-") && !name.starts_with(&mine) {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
    });
    let dir = std::env::temp_dir().join(format!(
        "abyss-conformance-wal-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    cfg.log.enabled = true;
    cfg.log.dir = dir;
    cfg
}

/// How an anomaly generator drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Properly transactional — the anomaly must be impossible.
    Txn,
    /// Fault injection: reads and dependent writes split across separate
    /// transactions — the anomaly must surface and the detector must fire.
    Split,
}

/// An anomaly generator + detector. Returns `Err(report)` when the
/// anomaly is *observed*; the conformance matrix asserts `Ok` in
/// [`Mode::Txn`], the power tests assert `Err` in [`Mode::Split`].
type AnomalyFn = fn(CcScheme, Mode) -> Result<(), String>;

struct Anomaly {
    name: &'static str,
    check: AnomalyFn,
}

const ANOMALIES: [Anomaly; 5] = [
    Anomaly {
        name: "lost_update",
        check: lost_update,
    },
    Anomaly {
        name: "write_skew",
        check: write_skew,
    },
    Anomaly {
        name: "read_only_snapshot",
        check: read_only_snapshot,
    },
    Anomaly {
        name: "double_scan_phantom",
        check: double_scan_phantom,
    },
    Anomaly {
        name: "delete_resurrection",
        check: delete_resurrection,
    },
];

fn run_anomaly(name: &str, scheme: CcScheme) {
    let a = ANOMALIES
        .iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("unknown anomaly {name}"));
    if let Err(report) = (a.check)(scheme, Mode::Txn) {
        panic!("{scheme}/{name}: {report}");
    }
}

// ------------------------------------------------------------- utilities

/// Thread-safe violation collector (detectors in worker threads must
/// report, not panic, so split-mode runs can assert the report).
#[derive(Default)]
struct Violations(Mutex<Vec<String>>);

impl Violations {
    fn record(&self, v: String) {
        self.0.lock().unwrap().push(v);
    }

    fn into_result(self) -> Result<(), String> {
        let v = self.0.into_inner().unwrap();
        if v.is_empty() {
            Ok(())
        } else {
            Err(format!("{} violation(s), first: {}", v.len(), v[0]))
        }
    }
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

fn accounts_db(scheme: CcScheme, accounts: u64) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_table("accounts", Schema::key_plus_payload(2, 8), accounts * 2);
    let mut cfg = EngineConfig::new(scheme, WORKERS);
    cfg.dl_timeout_us = 100;
    let db = Database::new(logged(cfg), cat).unwrap();
    db.load_table(0, 0..accounts, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, INITIAL);
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

fn all_partitions(scheme: CcScheme) -> Vec<PartId> {
    if scheme == CcScheme::HStore {
        (0..WORKERS).collect()
    } else {
        Vec::new()
    }
}

// ------------------------------------------------------------ lost update

/// Txn: concurrent committed RMW increments of 8 hot keys; the final sum
/// must equal the initial total plus every committed increment.
/// Split: the RMW is torn into a read transaction and a blind-write
/// transaction; two workers in lockstep then overwrite each other and an
/// increment vanishes.
fn lost_update(scheme: CcScheme, mode: Mode) -> Result<(), String> {
    let db = accounts_db(scheme, 64);
    let committed = AtomicU64::new(0);
    match mode {
        Mode::Txn => {
            std::thread::scope(|s| {
                for w in 0..WORKERS {
                    let db = Arc::clone(&db);
                    let committed = &committed;
                    s.spawn(move || {
                        let mut ctx = db.worker(w);
                        let mut rng = Rng(0x1234_5678 + u64::from(w));
                        for _ in 0..300 {
                            let key = rng.next() % 8;
                            let parts = partitions_for(scheme, &[key]);
                            ctx.run_txn(&parts, |t| {
                                t.update(0, key, |s, d| {
                                    row::fetch_add_u64(s, d, 1, 1);
                                })
                            })
                            .unwrap();
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        Mode::Split => {
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                for w in 0..2 {
                    let db = Arc::clone(&db);
                    let (committed, barrier) = (&committed, &barrier);
                    s.spawn(move || {
                        let mut ctx = db.worker(w);
                        let parts = partitions_for(scheme, &[0]);
                        for _ in 0..8 {
                            barrier.wait();
                            // Torn RMW, step 1: read in its own txn...
                            let v = ctx.run_txn(&parts, |t| t.read_u64(0, 0, 1)).unwrap();
                            barrier.wait();
                            // ...step 2: blind-write the stale v + 1.
                            ctx.run_txn(&parts, |t| {
                                t.update(0, 0, |s, d| row::set_u64(s, d, 1, v + 1))
                            })
                            .unwrap();
                            committed.fetch_add(1, Ordering::Relaxed);
                            barrier.wait();
                        }
                    });
                }
            });
        }
    }
    let expected = INITIAL * 8 + committed.load(Ordering::Relaxed);
    let total: u64 = (0..8)
        .map(|k| {
            let r = db.peek(0, k).unwrap();
            row::get_u64(db.schema(0), &r, 1)
        })
        .sum();
    if total == expected {
        Ok(())
    } else {
        Err(format!(
            "lost updates: hot keys sum to {total}, expected {expected}"
        ))
    }
}

// ------------------------------------------------------------- write skew

const SKEW_ROUNDS: u64 = 64;

/// Per round `r` over the key pair `(2r, 2r+1)` initialized to `(1, 1)`:
/// worker 0 reads both and zeroes the left key if the pair sums to ≥ 2;
/// worker 1 does the same to the right key. Any serial order leaves the
/// second transaction seeing a sum of 1 and writing nothing, so a
/// committed round ending at `x + y = 0` is write skew.
/// Split mode tears the read and the conditional write apart: both
/// workers read `2`, then both zero their key.
fn write_skew(scheme: CcScheme, mode: Mode) -> Result<(), String> {
    let db = accounts_db(scheme, SKEW_ROUNDS * 2);
    // Reset balances to 1 so sums are tiny and exact.
    for k in 0..SKEW_ROUNDS * 2 {
        let mut ctx = db.worker(0);
        ctx.run_txn(&partitions_for(scheme, &[k]), |t| {
            t.update(0, k, |s, d| row::set_u64(s, d, 1, 1))
        })
        .unwrap();
    }
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2u32 {
            let db = Arc::clone(&db);
            let barrier = &barrier;
            s.spawn(move || {
                let mut ctx = db.worker(w);
                for r in 0..SKEW_ROUNDS {
                    let (x, y) = (r * 2, r * 2 + 1);
                    let mine = if w == 0 { x } else { y };
                    let parts = partitions_for(scheme, &[x, y]);
                    barrier.wait();
                    match mode {
                        Mode::Txn => {
                            ctx.run_txn(&parts, |t| {
                                let sum = t.read_u64(0, x, 1)? + t.read_u64(0, y, 1)?;
                                if sum >= 2 {
                                    t.update(0, mine, |s, d| row::set_u64(s, d, 1, 0))?;
                                }
                                Ok(())
                            })
                            .unwrap();
                        }
                        Mode::Split => {
                            // Fault injection: the constraint read commits
                            // on its own; the write acts on a stale sum.
                            let sum =
                                ctx.run_txn(&parts, |t| {
                                    Ok(t.read_u64(0, x, 1)? + t.read_u64(0, y, 1)?)
                                })
                                .unwrap();
                            barrier.wait();
                            if sum >= 2 {
                                ctx.run_txn(&parts, |t| {
                                    t.update(0, mine, |s, d| row::set_u64(s, d, 1, 0))
                                })
                                .unwrap();
                            }
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
    let violations = Violations::default();
    for r in 0..SKEW_ROUNDS {
        let get = |k: u64| {
            let data = db.peek(0, k).unwrap();
            row::get_u64(db.schema(0), &data, 1)
        };
        let (x, y) = (get(r * 2), get(r * 2 + 1));
        if x + y == 0 {
            violations.record(format!(
                "write skew in round {r}: both constraint keys zeroed"
            ));
        }
    }
    violations.into_result()
}

// --------------------------------------------------- read-only snapshot

/// Writers transfer between accounts (preserving the total); read-only
/// transactions sum every account. Serializability admits only totals a
/// serial history could produce — exactly the initial total. Split mode
/// tears a transfer into separately committed debit and credit halves and
/// reads between them.
fn read_only_snapshot(scheme: CcScheme, mode: Mode) -> Result<(), String> {
    const ACCOUNTS: u64 = 16;
    let db = accounts_db(scheme, ACCOUNTS);
    let expected = INITIAL * ACCOUNTS;
    let violations = Violations::default();
    let all_parts = all_partitions(scheme);

    if mode == Mode::Split {
        // Deterministic single-threaded injection: debit committed,
        // observe, credit committed.
        let mut ctx = db.worker(0);
        let parts = partitions_for(scheme, &[0]);
        ctx.run_txn(&parts, |t| {
            t.update(0, 0, |s, d| {
                let b = row::get_u64(s, d, 1);
                row::set_u64(s, d, 1, b - 5);
            })
        })
        .unwrap();
        let total = ctx
            .run_txn(&all_parts, |t| {
                let mut sum = 0u64;
                for k in 0..ACCOUNTS {
                    sum += t.read_u64(0, k, 1)?;
                }
                Ok(sum)
            })
            .unwrap();
        if total != expected {
            violations.record(format!(
                "read-only txn observed total {total}, expected {expected}"
            ));
        }
        ctx.run_txn(&parts, |t| {
            t.update(0, 0, |s, d| {
                let b = row::get_u64(s, d, 1);
                row::set_u64(s, d, 1, b + 5);
            })
        })
        .unwrap();
        return violations.into_result();
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..2 {
            let db = Arc::clone(&db);
            let stop = &stop;
            s.spawn(move || {
                let mut ctx = db.worker(w);
                let mut rng = Rng(0x9999 + u64::from(w));
                while !stop.load(Ordering::Relaxed) {
                    let from = rng.next() % ACCOUNTS;
                    let mut to = rng.next() % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = rng.next() % 10;
                    let parts = partitions_for(scheme, &[from, to]);
                    ctx.run_txn(&parts, |t| {
                        let bal = t.read_u64(0, from, 1)?;
                        let transfer = amount.min(bal);
                        t.update(0, from, |s, d| {
                            let b = row::get_u64(s, d, 1);
                            row::set_u64(s, d, 1, b - transfer);
                        })?;
                        t.update(0, to, |s, d| {
                            let b = row::get_u64(s, d, 1);
                            row::set_u64(s, d, 1, b + transfer);
                        })?;
                        Ok(())
                    })
                    .unwrap();
                    std::thread::yield_now();
                }
            });
        }
        for w in 2..WORKERS {
            let db = Arc::clone(&db);
            let (stop, violations, all_parts) = (&stop, &violations, &all_parts);
            s.spawn(move || {
                let mut ctx = db.worker(w);
                for _ in 0..150 {
                    let total = ctx
                        .run_txn(all_parts, |t| {
                            let mut sum = 0u64;
                            for k in 0..ACCOUNTS {
                                sum += t.read_u64(0, k, 1)?;
                            }
                            Ok(sum)
                        })
                        .unwrap();
                    if total != expected {
                        violations.record(format!(
                            "read-only txn observed total {total}, expected {expected}"
                        ));
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    if db.sum_column(0, 1) != expected {
        violations.record("final balances do not conserve the total".into());
    }
    violations.into_result()
}

// ------------------------------------------------- double-scan phantom

/// The table holds even keys in `[0, 2 * PHANTOM_RANGE)`; inserter workers
/// commit odd keys (worker-disjoint) into the range, churn workers cycle
/// insert→delete, while scanner workers run committed transactions that
/// scan the same window **twice** and require identical key sets — a
/// phantom is exactly a committed transaction whose two reads of one
/// predicate disagree. ≥ 1000 committed double-scan trials per scheme,
/// plus an exact final reconciliation of the index against the committed
/// inserts and deletes. (Ported intact from the PR-2 phantom suite.)
const PHANTOM_RANGE: u64 = 64;
const PHANTOM_SCANNERS: u32 = 2;
const PHANTOM_TRIALS: u64 = 500; // per scanner ⇒ 1000 committed scans

fn double_scan_phantom(scheme: CcScheme, mode: Mode) -> Result<(), String> {
    if mode == Mode::Split {
        return double_scan_split(scheme);
    }
    let mut cat = Catalog::new();
    // Generous headroom: every churn insert takes a fresh arena slot (rows
    // are never reused), aborted insert attempts leak more, and the
    // phantom guards abort inserters often.
    cat.add_ordered_table(
        "scanned",
        Schema::key_plus_payload(1, 8),
        PHANTOM_RANGE * 512,
    );
    let mut cfg = EngineConfig::new(scheme, WORKERS);
    cfg.dl_timeout_us = 100;
    let db = Database::new(logged(cfg), cat).unwrap();
    db.load_table(0, (0..PHANTOM_RANGE).map(|k| k * 2), |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 1);
    })
    .unwrap();

    let high = PHANTOM_RANGE * 2;
    let all_parts = all_partitions(scheme);
    let inserted = AtomicU64::new(0);
    let deleted = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let violations = Violations::default();
    // Every worker starts scanning/churning at the same instant — without
    // this, the scanners can finish all their trials before the inserter
    // threads are even scheduled, and nothing actually races.
    let start = Barrier::new(WORKERS as usize);

    std::thread::scope(|s| {
        // Odd keys are partitioned by class c = ((k-1)/2) % 4:
        //   c == 0 / 1 — "permanent": inserter c commits each once, and
        //                scanner c may later delete observed ones;
        //   c == 2 / 3 — "churn": inserter c-2 cycles insert→delete for
        //                the whole run, so structural changes race every
        //                scan from the first trial to the last.
        for w in 0..(WORKERS - PHANTOM_SCANNERS) {
            let db = Arc::clone(&db);
            let (inserted, deleted, stop, all_parts) = (&inserted, &deleted, &stop, &all_parts);
            let start = &start;
            s.spawn(move || {
                let mut ctx = db.worker(w);
                start.wait();
                let ins = |ctx: &mut WorkerCtx, key: u64| {
                    ctx.run_txn(all_parts, |t| {
                        t.insert(0, key, |s, d| {
                            row::set_u64(s, d, 0, key);
                            row::set_u64(s, d, 1, 1);
                        })
                    })
                    .unwrap();
                    inserted.fetch_add(1, Ordering::Relaxed);
                };
                let mut perm = u64::from(w); // j = perm, class perm % 4 == w
                let mut churn = 0u64;
                // Bound churn so arena slots cannot run out even if the
                // scanners are slow (each cycle consumes a fresh slot).
                while !stop.load(Ordering::Relaxed) && churn < 2_000 {
                    if perm * 2 + 1 < high {
                        ins(&mut ctx, perm * 2 + 1);
                        perm += 4;
                    }
                    // One full churn cycle: insert then delete the same key.
                    let j = (churn % (PHANTOM_RANGE / 4)) * 4 + u64::from(w) + 2;
                    churn += 1;
                    let key = j * 2 + 1;
                    if key < high {
                        ins(&mut ctx, key);
                        ctx.run_txn(all_parts, |t| t.delete(0, key)).unwrap();
                        deleted.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Scanners: double scan per committed txn; occasional deletes.
        for w in (WORKERS - PHANTOM_SCANNERS)..WORKERS {
            let db = Arc::clone(&db);
            let (deleted, stop, all_parts, violations) = (&deleted, &stop, &all_parts, &violations);
            let start = &start;
            s.spawn(move || {
                let mut ctx = db.worker(w);
                start.wait();
                let mut rng = Rng(0xF00D + u64::from(w));
                for trial in 0..PHANTOM_TRIALS {
                    // Randomized sub-window, full window every 4th trial.
                    let (lo, hi) = if trial % 4 == 0 {
                        (0, high - 1)
                    } else {
                        let a = rng.next() % high;
                        let b = rng.next() % high;
                        (a.min(b), a.max(b))
                    };
                    let (first, second) = ctx
                        .run_txn(all_parts, |t| {
                            let mut first = Vec::new();
                            t.scan(0, lo, hi, |k, _, _| first.push(k))?;
                            // Hand the (possibly single) CPU to the churn
                            // threads so structural changes land between
                            // the two scans. An optimistic scheme may then
                            // observe a discrepancy here — that is legal
                            // as long as the commit below fails; the
                            // anomaly check therefore runs only on the
                            // *committed* result.
                            std::thread::yield_now();
                            let mut second = Vec::new();
                            t.scan(0, lo, hi, |k, _, _| second.push(k))?;
                            Ok((first, second))
                        })
                        .unwrap();
                    if first != second {
                        violations.record(format!(
                            "phantom: two scans of [{lo}, {hi}] in one committed txn disagree"
                        ));
                    }
                    let keys = first;
                    // Shrink the range now and then: delete an observed
                    // *permanent* odd key from this scanner's disjoint
                    // class (never re-inserted, classes never overlap, so
                    // each committed delete removes exactly one live key).
                    if trial % 16 == 7 {
                        let sw = u64::from(w - (WORKERS - PHANTOM_SCANNERS));
                        let mine = keys
                            .iter()
                            .copied()
                            .find(|&k| k % 2 == 1 && ((k - 1) / 2) % 4 == sw);
                        if let Some(k) = mine {
                            ctx.run_txn(all_parts, |t| t.delete(0, k))
                                .unwrap_or_else(|e| panic!("{scheme}: delete failed: {e}"));
                            deleted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    // Reconcile: committed state == loaded evens + inserts − deletes.
    let expected =
        PHANTOM_RANGE + inserted.load(Ordering::Relaxed) - deleted.load(Ordering::Relaxed);
    let mut ctx = db.worker(0);
    let final_count = ctx
        .run_txn(&all_parts, |t| t.scan(0, 0, u64::MAX, |_, _, _| {}))
        .unwrap();
    if final_count as u64 != expected {
        violations.record(format!(
            "committed inserts/deletes and final index disagree: {final_count} vs {expected}"
        ));
    }
    if db.index_len(0) != expected {
        violations.record("hash/btree index diverged".into());
    }
    violations.into_result()
}

/// Split-mode phantom: the double scan is torn across two transactions
/// with a committed insert in between — the key-set comparison must see
/// the planted phantom.
fn double_scan_split(scheme: CcScheme) -> Result<(), String> {
    let mut cat = Catalog::new();
    cat.add_ordered_table("scanned", Schema::key_plus_payload(1, 8), 256);
    let db = Database::new(logged(EngineConfig::new(scheme, WORKERS)), cat).unwrap();
    db.load_table(0, (0..16u64).map(|k| k * 2), |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 1);
    })
    .unwrap();
    let all_parts = all_partitions(scheme);
    let mut scanner = db.worker(0);
    let mut inserter = db.worker(1);
    let scan = |ctx: &mut WorkerCtx| {
        ctx.run_txn(&all_parts, |t| {
            let mut keys = Vec::new();
            t.scan(0, 0, 40, |k, _, _| keys.push(k))?;
            Ok(keys)
        })
        .unwrap()
    };
    let first = scan(&mut scanner);
    inserter
        .run_txn(&all_parts, |t| {
            t.insert(0, 7, |s, d| {
                row::set_u64(s, d, 0, 7);
                row::set_u64(s, d, 1, 1);
            })
        })
        .unwrap();
    let second = scan(&mut scanner);
    if first != second {
        Err(format!(
            "phantom: scans saw {} then {} keys",
            first.len(),
            second.len()
        ))
    } else {
        Ok(())
    }
}

// --------------------------------------------- next-key delete resurrection

/// A committed delete must stay deleted: no stale row reference, aborted
/// transaction, or scan may resurface the key; a legal re-insert must
/// surface it exactly once. Split mode injects a "botched undo" that
/// re-inserts the deleted key in a fresh transaction.
fn delete_resurrection(scheme: CcScheme, mode: Mode) -> Result<(), String> {
    let mut cat = Catalog::new();
    cat.add_ordered_table("t", Schema::key_plus_payload(1, 8), 256);
    let db = Database::new(logged(EngineConfig::new(scheme, 2)), cat).unwrap();
    db.load_table(0, 0..32u64, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, k);
    })
    .unwrap();
    let parts: Vec<PartId> = if scheme == CcScheme::HStore {
        vec![0, 1]
    } else {
        vec![]
    };
    let violations = Violations::default();
    let mut a = db.worker(0);
    let mut b = db.worker(1);
    let victims = [5u64, 11, 23];
    for &k in &victims {
        match mode {
            Mode::Txn => {
                let eager = scheme.is_two_phase_locking() || scheme == CcScheme::HStore;
                if eager {
                    // Locking/ownership excludes the stale-reference race
                    // up front; the hazard is the commit-time index
                    // withdrawal, so delete first, then probe.
                    b.run_txn(&parts, |t| t.delete(0, k)).unwrap();
                    if a.run_txn(&parts, |t| t.read_u64(0, k, 1)).is_ok() {
                        violations.record(format!("read of deleted key {k} succeeded"));
                    }
                } else {
                    // Optimistic/T-O: reads don't block writers, so a
                    // transaction can hold a stale row reference across a
                    // concurrent committed delete — the resurrection
                    // window this anomaly is about.
                    a.begin(&[], None).unwrap();
                    let _stale = a.read(0, k).map(<[u8]>::to_vec);
                    b.run_txn(&parts, |t| t.delete(0, k)).unwrap();
                    // Writing through the stale reference must not commit
                    // a resurrection: either the op or the commit fails,
                    // or (T/O) the write legally serialized *before* the
                    // delete — in every case the key must stay gone.
                    let wrote = a.update(0, k, |s, d| row::set_u64(s, d, 1, 999));
                    if wrote.is_ok() {
                        let _ = a.commit();
                    } else {
                        a.abort(abyss::common::AbortReason::UserAbort);
                    }
                }
            }
            Mode::Split => {
                // Fault injection: a "botched undo" re-plants the key
                // after its delete committed.
                b.run_txn(&parts, |t| t.delete(0, k)).unwrap();
                a.run_txn(&parts, |t| {
                    t.insert(0, k, |s, d| {
                        row::set_u64(s, d, 0, k);
                        row::set_u64(s, d, 1, 999);
                    })
                })
                .unwrap();
            }
        }
        // The detector: the key must be gone from every surface.
        if db.peek(0, k).is_ok() {
            violations.record(format!("deleted key {k} resurfaced in the index"));
        }
        let mut seen = Vec::new();
        a.run_txn(&parts, |t| {
            seen.clear();
            t.scan(0, 0, 64, |key, _, _| seen.push(key))
        })
        .unwrap();
        if seen.contains(&k) {
            violations.record(format!("deleted key {k} resurfaced in a scan"));
        }
    }
    if mode == Mode::Txn {
        // A legal re-insert must surface the key exactly once, and a
        // second committed delete must remove it again.
        let k = victims[0];
        a.run_txn(&parts, |t| {
            t.insert(0, k, |s, d| {
                row::set_u64(s, d, 0, k);
                row::set_u64(s, d, 1, 7);
            })
        })
        .unwrap();
        let mut seen = Vec::new();
        a.run_txn(&parts, |t| {
            seen.clear();
            t.scan(0, 0, 64, |key, _, _| seen.push(key))
        })
        .unwrap();
        if seen.iter().filter(|&&x| x == k).count() != 1 {
            violations.record(format!("re-inserted key {k} not seen exactly once"));
        }
        a.run_txn(&parts, |t| t.delete(0, k)).unwrap();
        if db.peek(0, k).is_ok() {
            violations.record(format!("re-deleted key {k} resurfaced"));
        }
    }
    violations.into_result()
}

// ------------------------------------------------------- the matrix

/// Expands one test per (anomaly, scheme) cell, plus a sync guard pinning
/// the scheme list to `CcScheme::ALL` so a new scheme cannot be silently
/// skipped.
macro_rules! conformance_matrix {
    ($($name:ident => $scheme:expr),+ $(,)?) => {
        const LISTED_SCHEMES: &[CcScheme] = &[$($scheme),+];

        #[test]
        fn matrix_covers_every_scheme() {
            assert_eq!(
                LISTED_SCHEMES,
                &CcScheme::ALL,
                "conformance matrix out of sync with CcScheme::ALL"
            );
        }

        #[test]
        fn matrix_covers_at_least_five_anomalies() {
            assert!(ANOMALIES.len() >= 5);
            let mut names: Vec<_> = ANOMALIES.iter().map(|a| a.name).collect();
            names.dedup();
            assert_eq!(names.len(), ANOMALIES.len(), "duplicate anomaly names");
        }

        mod lost_update {
            use super::*;
            $(#[test] fn $name() { run_anomaly("lost_update", $scheme); })+
        }
        mod write_skew {
            use super::*;
            $(#[test] fn $name() { run_anomaly("write_skew", $scheme); })+
        }
        mod read_only_snapshot {
            use super::*;
            $(#[test] fn $name() { run_anomaly("read_only_snapshot", $scheme); })+
        }
        mod double_scan_phantom {
            use super::*;
            $(#[test] fn $name() { run_anomaly("double_scan_phantom", $scheme); })+
        }
        mod delete_resurrection {
            use super::*;
            $(#[test] fn $name() { run_anomaly("delete_resurrection", $scheme); })+
        }
    };
}

conformance_matrix! {
    dl_detect => CcScheme::DlDetect,
    no_wait => CcScheme::NoWait,
    wait_die => CcScheme::WaitDie,
    timestamp => CcScheme::Timestamp,
    mvcc => CcScheme::Mvcc,
    occ => CcScheme::Occ,
    hstore => CcScheme::HStore,
    silo => CcScheme::Silo,
    tictoc => CcScheme::TicToc,
}

// ------------------------------------------------- detector power checks

/// Every detector must fire on its split-mode (fault-injected) history,
/// under every scheme — a detector that stays silent there could never
/// catch a real engine bug either.
mod power {
    use super::*;

    fn assert_fires(name: &str) {
        let a = ANOMALIES.iter().find(|a| a.name == name).unwrap();
        for scheme in CcScheme::ALL {
            let r = (a.check)(scheme, Mode::Split);
            assert!(
                r.is_err(),
                "{scheme}/{name}: detector failed to fire on an injected fault"
            );
        }
    }

    #[test]
    fn lost_update_detector_fires() {
        assert_fires("lost_update");
    }

    #[test]
    fn write_skew_detector_fires() {
        assert_fires("write_skew");
    }

    #[test]
    fn read_only_snapshot_detector_fires() {
        assert_fires("read_only_snapshot");
    }

    #[test]
    fn double_scan_phantom_detector_fires() {
        assert_fires("double_scan_phantom");
    }

    #[test]
    fn delete_resurrection_detector_fires() {
        assert_fires("delete_resurrection");
    }
}

// ------------------------------------------- TICTOC fast-path liveness

/// A read-heavy contended YCSB mix must exercise TICTOC's commit-time
/// rts-extension path — zero extensions would mean reads are being
/// revalidated by luck (or the fast path was silently disabled) rather
/// than by design.
#[test]
fn tictoc_rts_extension_fast_path_is_live() {
    use abyss::workload::{ycsb, YcsbConfig, YcsbGen};
    let cfg = YcsbConfig {
        table_rows: 256,
        ..YcsbConfig::read_intensive(0.8)
    };
    let db = Database::new(
        logged(EngineConfig::new(CcScheme::TicToc, WORKERS)),
        ycsb::catalog(&cfg),
    )
    .unwrap();
    db.load_table(0, 0..cfg.table_rows, ycsb::init_row).unwrap();
    let gens = (0..WORKERS)
        .map(|w| {
            let mut g = YcsbGen::new(cfg.clone(), 0xE27ED5 + u64::from(w));
            Box::new(move || g.next_txn()) as Box<dyn FnMut() -> abyss::common::TxnTemplate + Send>
        })
        .collect();
    let out = run_workers_bounded(&db, gens, 400);
    assert!(out.stats.commits >= u64::from(WORKERS) * 300);
    assert!(
        out.stats.rts_extensions > 0,
        "read-heavy contended TICTOC run recorded zero rts extensions"
    );
}
