//! Micro-benchmarks for the hot components, plus the §4.1 memory-pool
//! ablation (custom pool vs global allocator).
//!
//! Hand-rolled timing harness (`harness = false`) because the build
//! environment vendors no external bench framework. Run with
//! `cargo bench --bench micro`; each line prints ns/op over a fixed
//! iteration budget after a warmup pass.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use abyss_common::rng::Xoshiro256;
use abyss_common::zipf::ZipfGen;
use abyss_common::{CcScheme, TsMethod};
use abyss_core::{dispatch_protocol, CcProtocol, Database, EngineConfig, SharedTs};
use abyss_storage::{row, Catalog, HashIndex, MemPool, Schema};

/// Time `iters` runs of `f` (after `iters / 10` warmup runs) and print the
/// per-op latency.
fn bench(group: &str, name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{group}/{name:<24} {ns:>10.1} ns/op   ({iters} iters)");
}

fn bench_zipf() {
    let zipf = ZipfGen::new(1_000_000, 0.8);
    let mut rng = Xoshiro256::seed_from(7);
    bench("zipf", "draw_theta_0.8", 1_000_000, || {
        black_box(zipf.next(&mut rng));
    });
    let uniform = ZipfGen::new(1_000_000, 0.0);
    bench("zipf", "draw_uniform", 1_000_000, || {
        black_box(uniform.next(&mut rng));
    });
}

fn bench_index() {
    let idx = HashIndex::new(0, 1_000_000);
    for k in 0..1_000_000u64 {
        idx.insert(k, k).unwrap();
    }
    let mut rng = Xoshiro256::seed_from(9);
    bench("hash_index", "probe_hit", 1_000_000, || {
        black_box(idx.get(rng.next_below(1_000_000)).unwrap());
    });
    bench("hash_index", "probe_miss", 1_000_000, || {
        black_box(idx.find(1_000_000 + rng.next_below(1_000_000)));
    });
}

fn bench_ts_alloc() {
    for method in [
        TsMethod::Mutex,
        TsMethod::Atomic,
        TsMethod::Batched { batch: 16 },
        TsMethod::Clock,
    ] {
        let shared = SharedTs::new(method);
        let mut h = shared.handle(0);
        bench("ts_alloc_real", &method.label(), 1_000_000, || {
            black_box(h.alloc());
        });
    }
}

/// The §4.1 ablation: per-thread pool vs the global allocator for the
/// tuple-copy blocks that TIMESTAMP/OCC reads allocate.
fn bench_mempool() {
    let mut pool = MemPool::new();
    bench("malloc_ablation", "pool_alloc_free_1k", 1_000_000, || {
        let blk = pool.alloc(1008);
        black_box(&blk);
        pool.free(blk);
    });
    bench("malloc_ablation", "global_alloc_free_1k", 1_000_000, || {
        // Write through the allocation so LLVM cannot elide it.
        let mut v = vec![0u8; 1008];
        v[black_box(7)] = 1;
        black_box(v.as_ptr());
        drop(v);
    });
}

fn scheme_db(scheme: CcScheme) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_table("t", Schema::key_plus_payload(10, 100), 100_000);
    let db = Database::new(EngineConfig::new(scheme, 1), cat).unwrap();
    db.load_table(0, 0..100_000u64, |s, r, k| row::set_u64(s, r, 0, k))
        .unwrap();
    db
}

/// Single-threaded commit path: 4 reads + 4 updates per transaction.
fn bench_txn_path<P: CcProtocol>() {
    let db = scheme_db(P::SCHEME);
    let mut ctx = db.worker_as::<P>(0);
    let mut rng = Xoshiro256::seed_from(11);
    bench("txn_commit_path", P::SCHEME.name(), 100_000, || {
        let base = rng.next_below(90_000);
        ctx.run_txn(&[], |t| {
            for i in 0..4 {
                black_box(t.read(0, base + i)?);
            }
            for i in 4..8 {
                t.update(0, base + i, |s, d| {
                    row::fetch_add_u64(s, d, 1, 1);
                })?;
            }
            Ok(())
        })
        .unwrap();
    });
}

fn bench_sim_kernel() {
    use abyss_sim::kernel::{EventKind, EventQueue};
    bench("sim_kernel", "push_pop_1k", 10_000, || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(i * 7 % 997, (i % 64) as u32, EventKind::Step { epoch: i });
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
}

fn main() {
    bench_zipf();
    bench_index();
    bench_ts_alloc();
    bench_mempool();
    for scheme in CcScheme::NON_PARTITIONED {
        dispatch_protocol!(scheme, P => bench_txn_path::<P>());
    }
    bench_sim_kernel();
}
