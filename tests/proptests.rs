//! Randomized property tests on core data structures and engine
//! invariants.
//!
//! The build environment vendors no external property-testing framework,
//! so these use a tiny deterministic harness: [`cases`] runs a property
//! over `n` independently seeded [`Xoshiro256`] streams. Failures print
//! the case seed, which reproduces the exact inputs.

use std::collections::{BTreeMap, HashMap};

use abyss::common::rng::Xoshiro256;
use abyss::common::zipf::ZipfGen;
use abyss::common::CcScheme;
use abyss::core::schemes::{DlDetect, HStore, Mvcc, NoWait, Occ, Silo, TicToc, Timestamp, WaitDie};
use abyss::core::{CcProtocol, Database, EngineConfig};
use abyss::storage::{row, BPlusTree, Catalog, HashIndex, MemPool, Schema};

/// Run `property` over `n` deterministic random cases derived from `seed`.
fn cases(n: u64, seed: u64, mut property: impl FnMut(&mut Xoshiro256)) {
    for i in 0..n {
        let case_seed = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Xoshiro256::seed_from(case_seed);
        property(&mut rng);
    }
}

/// A random vector with length in `1..max_len`, elements drawn by `f`.
fn random_vec<T>(
    rng: &mut Xoshiro256,
    max_len: u64,
    mut f: impl FnMut(&mut Xoshiro256) -> T,
) -> Vec<T> {
    let len = rng.next_range(1, max_len);
    (0..len).map(|_| f(rng)).collect()
}

// ---------------------------------------------------------------- storage

/// The hash index behaves exactly like a HashMap model under random
/// insert/get/remove sequences.
#[test]
fn index_matches_model() {
    cases(64, 0xA11CE, |rng| {
        let ops = random_vec(rng, 200, |r| (r.next_below(3) as u8, r.next_below(200)));
        let idx = HashIndex::new(0, 64);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (op, key) in ops {
            match op {
                0 => {
                    let val = key * 2 + 1;
                    let r = idx.insert(key, val);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                        assert!(r.is_ok());
                        e.insert(val);
                    } else {
                        assert!(r.is_err());
                    }
                }
                1 => {
                    assert_eq!(idx.find(key), model.get(&key).copied());
                }
                _ => {
                    assert_eq!(idx.remove(key), model.remove(&key));
                }
            }
        }
        assert_eq!(idx.len(), model.len());
    });
}

/// The ordered index behaves exactly like a `BTreeMap` model under random
/// insert/remove/get/scan/successor sequences (single-threaded oracle).
#[test]
fn btree_matches_model() {
    cases(64, 0xB7EE, |rng| {
        let ops = random_vec(rng, 300, |r| {
            (r.next_below(5) as u8, r.next_below(256), r.next_below(256))
        });
        let tree = BPlusTree::new(0);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, a, b) in ops {
            match op {
                0 => {
                    let val = a * 31 + 7;
                    let r = tree.insert(a, val);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(a) {
                        assert!(r.is_ok());
                        e.insert(val);
                    } else {
                        assert!(r.is_err(), "duplicate insert of {a} must fail");
                    }
                }
                1 => {
                    let removed = tree.remove(a).map(|(row, _leaf)| row);
                    assert_eq!(removed, model.remove(&a), "remove({a})");
                }
                2 => {
                    assert_eq!(tree.get(a), model.get(&a).copied(), "get({a})");
                }
                3 => {
                    let (lo, hi) = (a.min(b), a.max(b));
                    let got: Vec<(u64, u64)> = tree.scan(lo, hi).entries;
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "scan [{lo}, {hi}]");
                }
                _ => {
                    let got = tree.successor_inclusive(a);
                    let want = model.range(a..).next().map(|(&k, &v)| (k, v));
                    assert_eq!(got, want, "successor({a})");
                }
            }
        }
        assert_eq!(tree.len() as usize, model.len());
        let health = tree.health();
        assert!(health.height >= 1 && health.nodes >= 1);
    });
}

/// Multi-threaded linearizability smoke: writers insert/remove disjoint
/// key classes while scanners observe; every scan must be sorted and
/// duplicate-free, every key must map to its writer's value, and the final
/// tree must equal the union of the writers' final sets.
#[test]
fn btree_concurrent_ops_linearizable_smoke() {
    use std::sync::Arc;
    cases(4, 0xC0C0, |rng| {
        let seed = rng.next_u64();
        let tree = Arc::new(BPlusTree::new(0));
        let writers = 3u64;
        let mut handles = Vec::new();
        for w in 0..writers {
            let tree = Arc::clone(&tree);
            handles.push(std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from(seed ^ (w << 32));
                let mut live: Vec<u64> = Vec::new();
                for i in 0..3_000u64 {
                    let k = (i * writers + w) * 2;
                    tree.insert(k, k + 1).unwrap();
                    live.push(k);
                    // Remove ~one third of our own keys as we go.
                    if rng.next_below(3) == 0 {
                        let idx = rng.next_below(live.len() as u64) as usize;
                        let k = live.swap_remove(idx);
                        let (row, _) = tree.remove(k).expect("own key present");
                        assert_eq!(row, k + 1);
                    }
                }
                live.sort_unstable();
                live
            }));
        }
        let scanner = {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                for _ in 0..300 {
                    let sr = tree.scan(0, u64::MAX);
                    assert!(
                        sr.entries.windows(2).all(|w| w[0].0 < w[1].0),
                        "concurrent scan must stay sorted and duplicate-free"
                    );
                    for &(k, v) in &sr.entries {
                        assert_eq!(v, k + 1, "torn entry for key {k}");
                    }
                }
            })
        };
        let mut expect: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        scanner.join().unwrap();
        expect.sort_unstable();
        let got: Vec<u64> = tree
            .scan(0, u64::MAX)
            .entries
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(got, expect, "final tree != union of writers' live sets");
    });
}

/// Pool blocks never alias: concurrently-live blocks are distinct
/// allocations (writing to one never corrupts another).
#[test]
fn mempool_blocks_do_not_alias() {
    cases(64, 0xB10C, |rng| {
        let sizes = random_vec(rng, 40, |r| r.next_range(1, 4096) as usize);
        let mut pool = MemPool::new();
        let mut live: Vec<_> = sizes.iter().map(|&s| pool.alloc(s)).collect();
        for (i, b) in live.iter_mut().enumerate() {
            b.as_mut_slice().fill(i as u8);
        }
        for (i, b) in live.iter().enumerate() {
            assert!(b.iter().all(|&x| x == i as u8), "block {i} was corrupted");
        }
        for b in live {
            pool.free(b);
        }
    });
}

/// Zipf draws always fall in range, for any (n, theta).
#[test]
fn zipf_in_range() {
    cases(64, 0x21FF, |rng| {
        let n = rng.next_range(1, 100_000);
        let theta = rng.next_f64() * 0.95;
        let g = ZipfGen::new(n, theta);
        for _ in 0..100 {
            assert!(g.next(rng) < n);
        }
    });
}

/// Row accessors round-trip arbitrary values on arbitrary schemas.
#[test]
fn row_accessors_round_trip() {
    cases(64, 0x0F0F, |rng| {
        let widths = random_vec(rng, 6, |r| r.next_range(8, 64) as usize);
        let vals: Vec<u64> = (0..widths.len()).map(|_| rng.next_u64()).collect();
        let schema = Schema::new(
            widths
                .iter()
                .enumerate()
                .map(|(i, &w)| abyss::storage::ColumnDef::new(format!("c{i}"), w))
                .collect(),
        );
        let mut data = vec![0u8; schema.row_size()];
        for (col, &v) in vals.iter().enumerate() {
            row::set_u64(&schema, &mut data, col, v);
        }
        for (col, &v) in vals.iter().enumerate() {
            assert_eq!(row::get_u64(&schema, &data, col), v);
        }
    });
}

// ----------------------------------------------------------------- scheme

/// Exhaustive index of every `CcScheme` variant. Adding a variant without
/// updating `CcScheme::ALL` breaks either this match (compile error) or
/// the `scheme_all_in_sync_with_enum` test below — together they make
/// `CcScheme::ALL` the single source of truth every scheme-parameterized
/// test derives from (or carries a sync guard against), so a new scheme
/// cannot be silently skipped anywhere.
fn variant_index(s: CcScheme) -> usize {
    match s {
        CcScheme::DlDetect => 0,
        CcScheme::NoWait => 1,
        CcScheme::WaitDie => 2,
        CcScheme::Timestamp => 3,
        CcScheme::Mvcc => 4,
        CcScheme::Occ => 5,
        CcScheme::HStore => 6,
        CcScheme::Silo => 7,
        CcScheme::TicToc => 8,
    }
}

/// `CcScheme::ALL` lists every variant exactly once.
#[test]
fn scheme_all_in_sync_with_enum() {
    let mut seen = [false; CcScheme::ALL.len()];
    for s in CcScheme::ALL {
        let i = variant_index(s);
        assert!(!seen[i], "{s} appears twice in CcScheme::ALL");
        seen[i] = true;
    }
    assert!(seen.iter().all(|&b| b), "CcScheme::ALL misses a variant");
}

/// `FromStr` round-trips `name()` for every variant, under random case
/// mangling and `_`/`-` substitution (the accepted spellings).
#[test]
fn scheme_name_round_trips() {
    cases(128, 0x5C4E, |rng| {
        for s in CcScheme::ALL {
            let mangled: String = s
                .name()
                .chars()
                .map(|c| {
                    let c = if c == '_' && rng.chance(0.5) { '-' } else { c };
                    if rng.chance(0.5) {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            assert_eq!(
                mangled.parse::<CcScheme>().unwrap(),
                s,
                "{mangled:?} must parse back to {s}"
            );
        }
    });
}

// ----------------------------------------------------------------- engine

/// Single-worker random transactions must leave the database exactly where
/// a sequential model says — for every scheme, over an *ordered* table so
/// every op also exercises B+-tree maintenance (catches rollback bugs,
/// buffered-write bugs and index divergence without needing concurrency).
/// Ops: committed/aborted updates, reads, committed/aborted deletes,
/// re-inserts of deleted keys, and range scans checked against the model.
fn engine_matches_model<P: CcProtocol>(ops: &[(u8, u64, u64)]) {
    let scheme = P::SCHEME;
    let mut catalog = Catalog::new();
    let t = catalog.add_ordered_table("t", Schema::key_plus_payload(1, 8), 512);
    let db = Database::new(EngineConfig::new(scheme, 1), catalog).unwrap();
    db.load_table(t, 0..32u64, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 100);
    })
    .unwrap();
    let mut model: BTreeMap<u64, u64> = (0..32).map(|k| (k, 100)).collect();

    let mut ctx = db.worker_as::<P>(0);
    for &(kind, key, val) in ops {
        let key = key % 32;
        match kind % 7 {
            0 => {
                // committed update (present keys only — missing keys are a
                // non-transactional error by contract)
                if model.contains_key(&key) {
                    ctx.run_txn(&[0], |txn| {
                        txn.update(t, key, |s, d| row::set_u64(s, d, 1, val))
                    })
                    .unwrap();
                    model.insert(key, val);
                }
            }
            1 => {
                // user-aborted update: must not change the model
                if model.contains_key(&key) {
                    let _ = ctx.run_txn(&[0], |txn| {
                        txn.update(t, key, |s, d| row::set_u64(s, d, 1, val))?;
                        Err::<(), _>(abyss::core::TxnError::Abort(
                            abyss::common::AbortReason::UserAbort,
                        ))
                    });
                }
            }
            2 => {
                // read must match the model; missing keys must error
                let r = ctx.run_txn(&[0], |txn| txn.read_u64(t, key, 1));
                match model.get(&key) {
                    Some(v) => assert_eq!(r.unwrap(), *v, "{scheme}: read mismatch at {key}"),
                    None => assert!(r.is_err(), "{scheme}: read of deleted {key} succeeded"),
                }
            }
            3 => {
                // committed delete; deleting a missing key is a Db error
                let r = ctx.run_txn(&[0], |txn| txn.delete(t, key));
                if model.remove(&key).is_some() {
                    r.unwrap();
                } else {
                    assert!(r.is_err(), "{scheme}: delete of missing {key} succeeded");
                }
            }
            4 => {
                // user-aborted delete: must not change anything
                if model.contains_key(&key) {
                    let _ = ctx.run_txn(&[0], |txn| {
                        txn.delete(t, key)?;
                        Err::<(), _>(abyss::core::TxnError::Abort(
                            abyss::common::AbortReason::UserAbort,
                        ))
                    });
                }
            }
            5 => {
                // (re-)insert an absent key
                model.entry(key).or_insert_with(|| {
                    ctx.run_txn(&[0], |txn| {
                        txn.insert(t, key, |s, d| {
                            row::set_u64(s, d, 0, key);
                            row::set_u64(s, d, 1, val);
                        })
                    })
                    .unwrap();
                    val
                });
            }
            _ => {
                // range scan must match the model's range exactly
                let (lo, hi) = (key.min(val % 32), key.max(val % 32));
                let mut got: Vec<(u64, u64)> = Vec::new();
                ctx.run_txn(&[0], |txn| {
                    got.clear();
                    txn.scan(t, lo, hi, |k, s, d| got.push((k, row::get_u64(s, d, 1))))
                })
                .unwrap();
                let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "{scheme}: scan [{lo}, {hi}] mismatch");
            }
        }
    }
    for (k, v) in &model {
        let data = db.peek(t, *k).unwrap();
        assert_eq!(
            row::get_u64(db.schema(t), &data, 1),
            *v,
            "{scheme}: final state mismatch at {k}"
        );
    }
    assert_eq!(
        db.index_len(t),
        model.len() as u64,
        "{scheme}: hash index and model diverged"
    );
}

fn engine_model_cases<P: CcProtocol>() {
    cases(16, 0xE26 ^ variant_index(P::SCHEME) as u64, |rng| {
        let ops = random_vec(rng, 60, |r| {
            (r.next_below(256) as u8, r.next_u64(), r.next_u64())
        });
        engine_matches_model::<P>(&ops);
    });
}

/// The schemes the per-scheme `engine_model_*` tests below cover — guarded
/// against `CcScheme::ALL` so a new scheme cannot be silently skipped.
const ENGINE_MODEL_SCHEMES: [CcScheme; 9] = [
    CcScheme::NoWait,
    CcScheme::DlDetect,
    CcScheme::WaitDie,
    CcScheme::Timestamp,
    CcScheme::Mvcc,
    CcScheme::Occ,
    CcScheme::HStore,
    CcScheme::Silo,
    CcScheme::TicToc,
];

#[test]
fn engine_model_covers_every_scheme() {
    let mut listed = ENGINE_MODEL_SCHEMES;
    listed.sort();
    let mut all = CcScheme::ALL;
    all.sort();
    assert_eq!(
        listed, all,
        "engine_model tests out of sync with CcScheme::ALL"
    );
}

#[test]
fn engine_model_no_wait() {
    engine_model_cases::<NoWait>();
}

#[test]
fn engine_model_dl_detect() {
    engine_model_cases::<DlDetect>();
}

#[test]
fn engine_model_wait_die() {
    engine_model_cases::<WaitDie>();
}

#[test]
fn engine_model_timestamp() {
    engine_model_cases::<Timestamp>();
}

#[test]
fn engine_model_mvcc() {
    engine_model_cases::<Mvcc>();
}

#[test]
fn engine_model_occ() {
    engine_model_cases::<Occ>();
}

#[test]
fn engine_model_hstore() {
    engine_model_cases::<HStore>();
}

#[test]
fn engine_model_silo() {
    engine_model_cases::<Silo>();
}

#[test]
fn engine_model_tictoc() {
    engine_model_cases::<TicToc>();
}

/// Seeded replay: the same generator seed and scheme must yield *bit-equal*
/// runs — identical commit/abort counts and identical final database
/// state — across two bounded `run_workers` invocations on one worker.
/// One worker removes scheduling as a variable, so any divergence is a
/// nondeterminism regression in the workload generators (or the engine).
/// The YCSB-E mix (scans + inserts + reads) exercises the generators'
/// full key/op machinery, and the state digest (column sum + live keys)
/// catches key-sequence drift that bare counts would miss.
#[test]
fn seeded_replay_is_deterministic_per_scheme() {
    use abyss::core::run_workers_bounded;
    use abyss::workload::{ycsb, YcsbGen};

    let run = |scheme: CcScheme| {
        let cfg = abyss::workload::YcsbConfig {
            table_rows: 2_000,
            theta: 0.6,
            insert_capacity: 2_000, // headroom for the YCSB-E fresh-key inserts
            ..abyss::workload::YcsbConfig::ycsb_e(0.3)
        };
        let db = Database::new(EngineConfig::new(scheme, 1), ycsb::catalog(&cfg)).unwrap();
        db.load_table(0, 0..cfg.table_rows, ycsb::init_row).unwrap();
        let mut g = YcsbGen::new(cfg, 0xD00D_F00D);
        let gens =
            vec![Box::new(move || g.next_txn())
                as Box<dyn FnMut() -> abyss::common::TxnTemplate + Send>];
        let out = run_workers_bounded(&db, gens, 150);
        (
            out.stats.commits,
            out.stats.aborts,
            out.stats.tuples_committed,
            out.stats.scans,
            db.sum_column(0, 1),
            db.index_len(0),
        )
    };
    for scheme in CcScheme::ALL {
        let a = run(scheme);
        let b = run(scheme);
        assert_eq!(a, b, "{scheme}: seeded replay diverged");
    }
}

// --------------------------------------------------------------- workload

/// Every generated YCSB template validates and respects its config.
#[test]
fn ycsb_templates_valid() {
    cases(32, 0x4C5B, |rng| {
        let seed = rng.next_u64();
        let theta = rng.next_f64() * 0.9;
        let reqs = rng.next_range(1, 20) as usize;
        let cfg = abyss::workload::YcsbConfig {
            table_rows: 10_000,
            reqs_per_txn: reqs,
            theta,
            ..abyss::workload::YcsbConfig::default()
        };
        let mut g = abyss::workload::YcsbGen::new(cfg, seed);
        for _ in 0..5 {
            let t = g.next_txn();
            assert!(t.validate().is_ok());
            assert_eq!(t.len(), reqs);
        }
    });
}

/// Every generated TPC-C template validates; partitions are sorted.
#[test]
fn tpcc_templates_valid() {
    cases(32, 0x79CC, |rng| {
        let seed = rng.next_u64();
        let warehouses = rng.next_range(1, 16) as u32;
        let cfg = abyss::workload::TpccConfig {
            warehouses,
            workers: warehouses * 2,
            ..abyss::workload::TpccConfig::default()
        };
        let mut g = abyss::workload::TpccGen::new(cfg, seed as u32 % (warehouses * 2), seed);
        for _ in 0..5 {
            let t = g.next_txn();
            assert!(t.validate().is_ok(), "{:?}", t.validate());
            assert!(t.partitions.windows(2).all(|w| w[0] < w[1]));
        }
    });
}
