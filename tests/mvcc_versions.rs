//! MVCC's newest-version-in-place layout and the T/O header word.
//!
//! * the version window: a reader with an old snapshot is served each of
//!   the last `mvcc_max_versions` images and aborts one past that;
//! * a two-thread single-row race — the reader's `rts` bump against the
//!   writer's prewrite and commit — checked against the MVTO invariant;
//! * reads alone never allocate per-tuple slow-path state or park pool
//!   blocks ("the base version lives in the arena");
//! * the header word's pack/unpack at the `wts` bit-width boundary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use abyss_common::{AbortReason, CcScheme};
use abyss_core::lockword::to;
use abyss_core::schemes::Mvcc;
use abyss_core::{Database, EngineConfig, TxnError, WorkerCtx};
use abyss_storage::{mempool, row, Catalog, Schema};

/// The mempool live-block gauge is process-wide; the tests of this file
/// all move it, so they take turns.
static GAUGE: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling must not fail the rest through a poisoned lock.
    GAUGE.lock().unwrap_or_else(|e| e.into_inner())
}

fn build_db(workers: u32, rows: u64, max_versions: usize) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_table("t", Schema::key_plus_payload(1, 8), rows);
    let mut cfg = EngineConfig::new(CcScheme::Mvcc, workers);
    cfg.mvcc_max_versions = max_versions;
    let db = Database::new(cfg, cat).unwrap();
    db.load_table(0, 0..rows, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 100);
    })
    .unwrap();
    db
}

#[test]
fn old_snapshots_see_exactly_the_retained_versions() {
    let _turn = take_turn();
    const K: usize = 4;
    // Worker 0 writes; workers 1..=K+1 each hold one snapshot open.
    let db = build_db(K as u32 + 2, 1, K);
    let mut writer = db.worker_as::<Mvcc>(0);
    let mut readers: Vec<_> = (1..=K as u32 + 1)
        .map(|w| db.worker_as::<Mvcc>(w))
        .collect();
    // Reader i begins after i committed writes, so its snapshot is 100 + i.
    for (i, reader) in readers.iter_mut().enumerate() {
        reader.begin(&[], None).unwrap();
        if i < K {
            writer
                .run_txn(&[], |t| t.update_counter(0, 0, 1, 1))
                .unwrap();
        }
    }
    // Initial image + K writes = K + 1 versions, K retained: the arena row
    // and K - 1 superseded images. Only reader 0's snapshot is gone.
    for (i, reader) in readers.iter_mut().enumerate().rev() {
        let got = reader.read_u64(0, 0, 1);
        if i == 0 {
            assert_eq!(
                got,
                Err(TxnError::Abort(AbortReason::TsOrderViolation)),
                "a snapshot one past the retained window must abort"
            );
            reader.abort(AbortReason::TsOrderViolation);
        } else {
            assert_eq!(got, Ok(100 + i as u64), "reader {i} saw the wrong version");
            reader.commit().unwrap();
        }
    }
    assert_eq!(db.sum_column(0, 1), 100 + K as u64);
}

/// One writer incrementing a counter, one reader sampling it, on a single
/// row. The writer is the only one, so its k-th commit leaves the value
/// k: a reader at `ts` must see exactly the number of commits serialized
/// below `ts` — one fewer means a write committed beneath a reader that
/// had already looked (the MVTO rule the `rts` check enforces), one more
/// a read of an uncommitted or too-new image.
#[test]
fn single_row_reader_writer_race_keeps_mvto_order() {
    let _turn = take_turn();
    const COMMITS: u64 = 100_000;
    let db = build_db(2, 1, 8);
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let (commit_ts, samples) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut ctx = db.worker_as::<Mvcc>(0);
            let mut commit_ts = Vec::with_capacity(COMMITS as usize);
            start.wait();
            for _ in 0..COMMITS {
                let mut ts = 0;
                ctx.run_txn(&[], |t| {
                    ts = t.current_ts();
                    t.update_counter(0, 0, 1, 1)
                })
                .unwrap();
                commit_ts.push(ts);
            }
            done.store(true, Ordering::Release);
            commit_ts
        });
        let reader = s.spawn(|| {
            let mut ctx = db.worker_as::<Mvcc>(1);
            let mut samples = Vec::new();
            let mut lagged = 0u64;
            start.wait();
            let mut i = 0u64;
            while !done.load(Ordering::Acquire) {
                i += 1;
                ctx.begin(&[], None).unwrap();
                let ts = ctx.current_ts();
                if i.is_multiple_of(4) {
                    // Let the writer get ahead: this read is served from
                    // the history, or finds its snapshot evicted.
                    std::thread::yield_now();
                }
                match ctx.read_u64(0, 0, 1) {
                    Ok(v) => {
                        ctx.commit().unwrap();
                        samples.push((ts, v));
                    }
                    Err(TxnError::Abort(r)) => {
                        assert!(
                            matches!(r, AbortReason::TsOrderViolation | AbortReason::WaitTimeout),
                            "unexpected reader abort {r}"
                        );
                        ctx.abort(r);
                        lagged += 1;
                    }
                    Err(e) => panic!("reader failed: {e}"),
                }
            }
            assert!(
                samples.len() as u64 > lagged,
                "reader mostly aborted: {} reads, {lagged} aborts",
                samples.len()
            );
            samples
        });
        (writer.join().unwrap(), reader.join().unwrap())
    });
    assert!(commit_ts.windows(2).all(|w| w[0] < w[1]));
    for (ts, v) in samples {
        let below = commit_ts.partition_point(|&w| w < ts) as u64;
        assert_eq!(
            v,
            100 + below,
            "reader at ts {ts} saw {v}, but {below} writes serialized below it"
        );
    }
    assert_eq!(db.sum_column(0, 1), 100 + COMMITS, "increments lost");
}

#[test]
fn reads_leave_per_tuple_state_unallocated() {
    let _turn = take_turn();
    const ROWS: u64 = 2_000;
    let db = build_db(1, ROWS, 8);
    let mut ctx = db.worker_as::<Mvcc>(0);
    let read_all = |ctx: &mut WorkerCtx<Mvcc>| {
        for k in 0..ROWS {
            let v = ctx.run_txn(&[], |t| t.read_u64(0, k, 1)).unwrap();
            assert_eq!(v, 100);
        }
    };
    // The first pass stocks the worker's own pool; after that a read is
    // one recycled block out and back.
    read_all(&mut ctx);
    let live = mempool::live_blocks();
    read_all(&mut ctx);
    assert_eq!(mempool::live_blocks(), live, "reads parked pool blocks");
    assert_eq!(
        db.debug_aux_allocated(0),
        0,
        "a never-written tuple allocated slow-path state"
    );
    // A write is what allocates it — and only on the tuple it touches.
    ctx.run_txn(&[], |t| t.update_counter(0, 7, 1, 1)).unwrap();
    assert_eq!(db.debug_aux_allocated(0), 1);
}

#[test]
fn header_word_round_trips_at_the_wts_boundary() {
    for wts in [0, 1, to::WTS_MASK - 1, to::WTS_MASK] {
        for bits in 0..8u64 {
            let flags = bits << to::WTS_BITS;
            let h = to::with_wts(flags, wts);
            assert_eq!(to::wts(h), wts);
            assert_eq!(h & !to::WTS_MASK, flags, "wts {wts} bled into the flags");
            assert_eq!(to::is_pending(h), flags & to::PENDING != 0);
            assert_eq!(to::has_history(h), flags & to::HISTORY != 0);
            // A pending update leaves wts and the other flags alone.
            let set = to::with_pending(h, true);
            let clear = to::with_pending(h, false);
            assert!(to::is_pending(set) && !to::is_pending(clear));
            assert_eq!((to::wts(set), to::wts(clear)), (wts, wts));
            assert_eq!(set & !to::PENDING, h & !to::PENDING);
            assert_eq!(clear & !to::PENDING, h & !to::PENDING);
            // Replacing wts keeps every flag.
            assert_eq!(to::with_wts(h, 7) & !to::WTS_MASK, flags);
        }
    }
    assert_eq!(to::TOMBSTONE, to::WTS_MASK);
    assert_eq!(
        to::LATCH | to::PENDING | to::HISTORY | to::WTS_MASK,
        u64::MAX,
        "every bit of the word is accounted for"
    );
    // One past the field must be refused, not wrapped into the flags.
    let wide = std::panic::catch_unwind(|| to::with_wts(0, to::WTS_MASK + 1));
    assert!(wide.is_err());
}
