//! The layer ledger: each layer's public functions timed in isolation,
//! from here, so that a change to one layer shows where it should and
//! nowhere else. Every traced run carries these, whatever its workload;
//! the work per microbenchmark is a fixed number of calls, not a time.
//!
//! Layer = module path: `workload.*`, `core.ts`, `storage.index`,
//! `storage.btree`, `storage.mempool`, `storage.wal`, `core.epoch`,
//! `core.schemes.<S>`, `core.serve`, and the `ledger` reconciliation.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use abyss_common::rng::Xoshiro256;
use abyss_common::{CcScheme, PinPolicy, Priority, TsMethod};
use abyss_core::executor::{self, HOT_COL};
use abyss_core::schemes::CcProtocol;
use abyss_core::{Database, EpochManager, SharedTs};
use abyss_storage::wal::LogOp;
use abyss_storage::{row, BPlusTree, FsyncPolicy, HashIndex, MemPool, WalSet};
use abyss_workload::procs;
use abyss_workload::tpcc::TpccGen;
use abyss_workload::ycsb::{YcsbGen, YCSB_TABLE};

use crate::engine::{self, with_protocol, Env, Gen, YCSB_READ_ROWS};
use crate::report::RunResult;
use crate::service::{self, Cursor, Requests, Service, RATE_HI, RATE_LO};
use crate::stats;
use crate::trace::{now_ns, TraceSink, Tracer};

/// Nanoseconds per call of `f`: the median of three timed batches of
/// `iters` calls, after one untimed batch.
fn per_op(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut batch = |timed: bool| {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        if timed {
            t.elapsed().as_nanos() as f64 / iters as f64
        } else {
            0.0
        }
    };
    batch(false);
    stats::median(&[batch(true), batch(true), batch(true)])
}

/// [`per_op`] on `threads` pinned threads at once: nanoseconds per call as
/// each thread sees it (the slowest thread's figure).
fn per_op_on<F: FnMut(u64) + Send>(threads: u32, iters: u64, make: impl Fn(u32) -> F) -> f64 {
    let go = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let mut f = make(w);
                let go = &go;
                s.spawn(move || {
                    PinPolicy::Compact.apply(w, threads);
                    go.wait();
                    per_op(iters, &mut f)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer thread panicked"))
            .fold(0.0, f64::max)
    })
}

fn workload_gen(env: &Env, res: &mut RunResult) -> f64 {
    let gen_ns = |mut g: Gen| {
        per_op(100_000, |_| {
            black_box(g.next_txn());
        })
    };
    let ycsb = |rows, read_pct, theta| {
        Gen::Ycsb(YcsbGen::new(
            engine::ycsb_config(rows, read_pct, theta, CcScheme::NoWait, 1),
            env.seed,
        ))
    };
    let uniform = gen_ns(ycsb(YCSB_READ_ROWS, 1.0, 0.0));
    res.push("workload.ycsb.gen_ns.uniform", "ns", uniform);
    res.push(
        "workload.ycsb.gen_ns.zipf09",
        "ns",
        gen_ns(ycsb(100_000, 0.5, 0.9)),
    );
    let tpcc = TpccGen::new(engine::tpcc_config(env.workers), 0, env.seed);
    res.push("workload.tpcc.gen_ns", "ns", gen_ns(Gen::Tpcc(tpcc)));
    uniform
}

fn ts_alloc(env: &Env, res: &mut RunResult) {
    let alloc_ns = |method, threads| {
        let ts = SharedTs::new(method);
        per_op_on(threads, 1_000_000, |w| {
            let mut h = ts.handle(w);
            move |_| {
                black_box(h.alloc());
            }
        })
    };
    let w = env.workers;
    res.push(
        "core.ts.alloc_ns.atomic.t1",
        "ns",
        alloc_ns(TsMethod::Atomic, 1),
    );
    res.push(
        "core.ts.alloc_ns.atomic.tW",
        "ns",
        alloc_ns(TsMethod::Atomic, w),
    );
    res.push(
        "core.ts.alloc_ns.batched16.tW",
        "ns",
        alloc_ns(TsMethod::Batched { batch: 16 }, w),
    );
    res.push(
        "core.ts.alloc_ns.clock.tW",
        "ns",
        alloc_ns(TsMethod::Clock, w),
    );
}

fn hash_index(env: &Env, res: &mut RunResult) {
    let mut rng = Xoshiro256::seed_from(env.seed);
    let probe = |index: &HashIndex, keys: u64, rng: &mut Xoshiro256| {
        per_op(500_000, |_| {
            black_box(index.get(rng.next_below(keys)).expect("loaded key"));
        })
    };
    // 4 096 keys stay in cache; 2 M do not: the gap is the miss share.
    let small = HashIndex::new(0, 4_096);
    for k in 0..4_096 {
        small.insert(k, k).expect("fresh key");
    }
    res.push(
        "storage.index.get_ns.small",
        "ns",
        probe(&small, 4_096, &mut rng),
    );
    const LARGE: u64 = 2_000_000;
    let large = HashIndex::new(0, LARGE);
    let t = Instant::now();
    for k in 0..LARGE {
        large.insert(k, k).expect("fresh key");
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / LARGE as f64;
    res.push(
        "storage.index.get_ns.large",
        "ns",
        probe(&large, LARGE, &mut rng),
    );
    res.push("storage.index.insert_ns", "ns", insert_ns);
}

fn btree(env: &Env, res: &mut RunResult) {
    const KEYS: u64 = 1_000_000;
    let mut rng = Xoshiro256::seed_from(env.seed);
    let tree = BPlusTree::new(0);
    let t = Instant::now();
    for k in 0..KEYS {
        tree.insert(k, k).expect("fresh key");
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / KEYS as f64;
    res.push(
        "storage.btree.get_ns",
        "ns",
        per_op(300_000, |_| {
            black_box(tree.get(rng.next_below(KEYS)).expect("loaded key"));
        }),
    );
    res.push("storage.btree.insert_ns", "ns", insert_ns);
    const SCAN_LEN: u64 = 100;
    let per_scan = per_op(20_000, |_| {
        let low = rng.next_below(KEYS - SCAN_LEN);
        let got = tree.scan(low, low + SCAN_LEN - 1);
        assert_eq!(got.entries.len() as u64, SCAN_LEN);
        black_box(got);
    });
    res.push(
        "storage.btree.scan_ns_per_key",
        "ns",
        per_scan / SCAN_LEN as f64,
    );
    res.push(
        "storage.btree.height",
        "count",
        f64::from(tree.health().height),
    );
}

fn mempool(res: &mut RunResult) {
    let mut pool = MemPool::new();
    res.push(
        "storage.mempool.alloc_free_ns.1k",
        "ns",
        per_op(1_000_000, |_| {
            let b = black_box(pool.alloc(1008));
            pool.free(b);
        }),
    );
    res.push(
        "storage.mempool.alloc_uninit_free_ns.1k",
        "ns",
        per_op(1_000_000, |_| {
            let b = black_box(pool.alloc_uninit(1008));
            pool.free(b);
        }),
    );
}

fn wal(env: &Env, res: &mut RunResult) {
    let open = |tag: &str| {
        let dir = engine::fresh_wal_dir(env, tag);
        let set = WalSet::open(&dir, 1, FsyncPolicy::Group, 1 << 20).expect("open WAL");
        (dir, set)
    };
    // A TPC-C-sized write set: ~2.3 KB over eight after-images.
    let image = vec![0xABu8; 280];
    let ops: Vec<LogOp> = (0..8)
        .map(|k| LogOp::Put {
            table: 0,
            key: k,
            image: &image,
        })
        .collect();
    let (dir, set) = open("layer-txn");
    res.push(
        "storage.wal.append_ns_per_txn",
        "ns",
        per_op(5_000, |i| {
            black_box(set.append_commit(0, 1, i + 1, &ops));
        }),
    );
    // One group-commit fence over ~1 MB of fresh log, fsync included.
    let mut flush_ms = Vec::new();
    for round in 0..7u64 {
        for i in 0..450 {
            set.append_commit(0, round + 2, i + 1, &ops);
        }
        let t = Instant::now();
        set.group_flush(round + 2);
        flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(set);
    let _ = std::fs::remove_dir_all(dir);

    let (dir, set) = open("layer-100b");
    let small = [LogOp::Put {
        table: 0,
        key: 7,
        image: &image[..100],
    }];
    res.push(
        "storage.wal.append_ns_per_100b",
        "ns",
        per_op(50_000, |i| {
            black_box(set.append_commit(0, 1, i + 1, &small));
        }),
    );
    drop(set);
    let _ = std::fs::remove_dir_all(dir);
    res.push("storage.wal.group_flush_ms", "ms", stats::median(&flush_ms));

    // Through the engine: one worker, a fixed number of TPC-C transactions
    // — so the bytes logged per transaction repeat exactly for a seed.
    let spec = engine::spec("tpcc_durable").expect("known workload");
    let dir = engine::fresh_wal_dir(env, "layer-tpcc");
    let s = engine::bounded_slice(&spec, CcScheme::NoWait, 1, env.seed, Some(&dir), 20_000);
    let w = s.db.wal_stats().expect("logging on");
    res.push(
        "storage.wal.bytes_per_txn",
        "count",
        w.bytes as f64 / s.tally.attempted as f64,
    );
    res.push(
        "storage.wal.fsyncs_per_s",
        "1/s",
        w.fsyncs as f64 / s.wall_s,
    );
    res.attempted += s.tally.attempted;
    res.failed += s.tally.failed;
    drop(s);
    let _ = std::fs::remove_dir_all(dir);
}

fn epoch(res: &mut RunResult) {
    let mgr = EpochManager::new(1);
    res.push(
        "core.epoch.enter_exit_ns",
        "ns",
        per_op(2_000_000, |_| {
            black_box(mgr.enter(0));
            mgr.exit(0);
        }),
    );
    res.push(
        "core.epoch.advance_ns",
        "ns",
        per_op(1_000_000, |_| {
            black_box(mgr.advance());
        }),
    );
}

/// One scheme's protocol calls, uncontended, on the `ycsb_read` table.
struct SchemeCosts {
    begin: f64,
    read: f64,
    write: f64,
    commit: f64,
    /// Commit of a read-only transaction (the ledger needs it; the
    /// reported `commit_ns` is the 8-write commit).
    commit_ro: f64,
    /// A whole `ycsb_read` transaction through `run_template`, generation
    /// included, one worker.
    end_to_end: f64,
}

fn scheme_costs<P: CcProtocol>(db: &Arc<Database>, seed: u64, clock_ns: f64) -> SchemeCosts {
    const TXNS: u64 = 3_000;
    const LEDGER_WINDOW: Duration = Duration::from_millis(300);
    let mut ctx = db.worker_as::<P>(0);
    let mut rng = Xoshiro256::seed_from(seed);
    let mut key = move || rng.next_below(YCSB_READ_ROWS);
    // [begin, reads, writes, commit] time of each shape, clock reads netted out
    let mut shape = |ctx: &mut abyss_core::WorkerCtx<P>, reads: u32, writes: u32| {
        let mut sum = [0u64; 4];
        for i in 0..TXNS + TXNS / 10 {
            let t0 = now_ns();
            ctx.begin(&[0], None).expect("uncontended begin");
            let t1 = now_ns();
            for _ in 0..reads {
                // Touch the row's first and last byte, as the template
                // executor does: under the in-place schemes that touch,
                // not the protocol call, is what misses the cache.
                let d = ctx.read(YCSB_TABLE, key()).expect("uncontended read");
                black_box(d[0] ^ d[d.len() - 1]);
            }
            let t2 = now_ns();
            for _ in 0..writes {
                ctx.update(YCSB_TABLE, key(), |s, d| {
                    row::fetch_add_u64(s, d, HOT_COL, 1);
                })
                .expect("uncontended update");
            }
            let t3 = now_ns();
            ctx.commit().expect("uncontended commit");
            let t4 = now_ns();
            if i >= TXNS / 10 {
                for (s, d) in sum.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
                    *s += d;
                }
            }
        }
        sum.map(|s| (s as f64 / TXNS as f64 - clock_ns).max(0.0))
    };
    let mut gen = YcsbGen::new(
        engine::ycsb_config(YCSB_READ_ROWS, 1.0, 0.0, db.scheme(), 1),
        seed,
    );
    // ns per `ycsb_read` transaction through run_template over `window`
    let mut end_to_end = |ctx: &mut abyss_core::WorkerCtx<P>, window: Duration| {
        let (t, mut n) = (Instant::now(), 0u64);
        while t.elapsed() < window {
            for _ in 0..64 {
                executor::run_template(ctx, &gen.next_txn()).expect("read-only txn commits");
            }
            n += 64;
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    // Discarded: the first touch of a row allocates its per-tuple state
    // under several schemes, which neither side of the ledger should pay.
    end_to_end(&mut ctx, LEDGER_WINDOW);
    let [begin, reads, _, commit_ro] = shape(&mut ctx, 16, 0);
    let [_, _, writes, commit] = shape(&mut ctx, 8, 8);
    SchemeCosts {
        begin,
        read: reads / 16.0,
        write: writes / 8.0,
        commit,
        commit_ro,
        end_to_end: end_to_end(&mut ctx, LEDGER_WINDOW),
    }
}

/// `core.schemes.<S>.*` and the ledger: does what the layers cost in
/// isolation add up to what a transaction costs end to end?
fn schemes(env: &Env, gen_uniform_ns: f64, res: &mut RunResult) {
    let clock_ns = per_op(1_000_000, |_| {
        black_box(now_ns());
    });
    let spec = engine::spec("ycsb_read").expect("known workload");
    for scheme in CcScheme::ALL {
        let db = engine::build(&spec, scheme, 1, None, false);
        let c = with_protocol!(scheme, P => scheme_costs::<P>(&db, env.seed, clock_ns));
        let name = scheme.name();
        res.push(format!("core.schemes.{name}.begin_ns"), "ns", c.begin);
        res.push(format!("core.schemes.{name}.read_ns"), "ns", c.read);
        res.push(format!("core.schemes.{name}.write_ns"), "ns", c.write);
        res.push(format!("core.schemes.{name}.commit_ns"), "ns", c.commit);
        let layers = gen_uniform_ns + c.begin + 16.0 * c.read + c.commit_ro;
        let residual = 1.0 - layers / c.end_to_end;
        res.push(format!("ledger.residual_frac.{name}"), "ratio", residual);
        res.info.push(format!(
            "ledger {name}: gen {gen_uniform_ns:.0} + begin {:.0} + 16 x read {:.0} + commit {:.0} = {layers:.0} ns of {:.0} ns per txn{}",
            c.begin,
            c.read,
            c.commit_ro,
            c.end_to_end,
            if residual.abs() > 0.15 { "  [residual > 0.15]" } else { "" }
        ));
    }
}

/// `core.serve.*`: the cost of going through the front end, and a short
/// open-loop probe at both rates with spans.
fn serve(env: &Env, res: &mut RunResult, sink: &mut TraceSink) {
    const CALLS: usize = 20_000;
    let ws = service::service_workers(env);
    let reqs = Requests::generate(env.seed);
    let s = Service::start(CcScheme::NoWait, ws, false);
    // One request outstanding at a time: [submit_id ns, round trip ns, updates]
    let [submit_ns, roundtrip_ns, mut updates] = service::on_producer_core(&s, || {
        let mut sum = [0u64; 3];
        for i in 0..CALLS + CALLS / 10 {
            let t0 = now_ns();
            let ticket = s
                .svc
                .submit_id(s.proc_id, reqs.args(i), Priority::Low)
                .expect("idle service accepts");
            let t1 = now_ns();
            let status = ticket.wait();
            let t2 = now_ns();
            assert_eq!(status, abyss_core::TicketStatus::Committed);
            sum[2] += u64::from(reqs.args(i)[0].count_ones());
            if i >= CALLS / 10 {
                sum[0] += t1 - t0;
                sum[1] += t2 - t0;
            }
        }
        sum
    });
    let submit = submit_ns as f64 / CALLS as f64;
    let roundtrip = roundtrip_ns as f64 / CALLS as f64;

    // The same templates straight through run_template, no front end.
    let direct_db = Service::start(CcScheme::NoWait, 1, false);
    let mut ctx = direct_db.db.worker_as::<abyss_core::schemes::NoWait>(0);
    let direct = per_op(CALLS as u64, |i| {
        let tmpl = procs::ycsb_rmw(reqs.args(i as usize));
        executor::run_template(&mut ctx, &tmpl).expect("uncontended txn commits");
    });
    drop(ctx);
    drop(direct_db);
    res.push("core.serve.submit_ns", "ns", submit);
    res.push("core.serve.roundtrip_ns", "ns", roundtrip);
    res.push("core.serve.overhead_ns", "ns", roundtrip - direct);

    let mut cur = Cursor(CALLS * 2);
    let mut probe = |rate: u64, dur: Duration, label: &str| {
        let mut tr = Tracer::new(0, (rate as f64 * dur.as_secs_f64()) as usize * 3 + 16);
        let o = service::open(
            &s,
            &reqs,
            &mut cur,
            rate * u64::from(ws),
            dur,
            Some(&mut tr),
        );
        sink.add(label, vec![tr]);
        o
    };
    let lo = probe(RATE_LO, Duration::from_millis(500), "serve.lo");
    let hi = probe(RATE_HI, Duration::from_millis(1000), "serve.hi");
    let us = stats::quantile_us;
    res.push("core.serve.ack_p50_us.lo", "us", us(&lo.lat_sorted, 0.5));
    res.push("core.serve.ack_p99_us.hi", "us", us(&hi.lat_sorted, 0.99));
    res.push(
        "core.serve.shed_ratio.hi",
        "ratio",
        hi.outcome.shed as f64 / hi.outcome.submitted as f64,
    );
    res.push(
        "core.serve.gen_late_p99_us",
        "us",
        us(&hi.late_sorted, 0.99),
    );
    res.info.push(stats::latency_line(
        "serve probe due->ack at hi",
        &hi.lat_sorted,
    ));
    for o in [&lo.outcome, &hi.outcome] {
        updates += o.updates;
        res.attempted += o.submitted;
        res.failed += o.failed();
    }
    res.attempted += (CALLS + CALLS / 10) as u64;
    s.finish(updates, "serve layer probe", res);
}

pub fn run(env: &Env, res: &mut RunResult, sink: &mut TraceSink) {
    let gen_uniform_ns = workload_gen(env, res);
    ts_alloc(env, res);
    hash_index(env, res);
    btree(env, res);
    mempool(res);
    wal(env, res);
    epoch(res);
    schemes(env, gen_uniform_ns, res);
    serve(env, res, sink);
}
