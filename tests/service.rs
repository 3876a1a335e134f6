//! Serving-layer conformance: the transaction front end under overload.
//!
//! Producers saturate a two-priority [`TxnService`] (bounded shards,
//! non-blocking admission) until load shedding engages, then the harness
//! checks the three service-level guarantees:
//!
//! * **No accepted ticket is lost** — every `submit` that returned a
//!   ticket resolves exactly once (committed, aborted, failed, or shed),
//!   and the admission counters reconcile with the per-producer tallies.
//! * **Priority holds under overload** — with both classes admitted at
//!   the same shard-depth bound, the starvation-free high-first dequeue
//!   must give the high class a strictly better queue-to-ack tail than
//!   the 90%-share low class.
//! * **Drain is exact** — after graceful shutdown, the database state
//!   equals a serial replay of exactly the committed templates on a
//!   fresh, identically-loaded database. The stored procedures' updates
//!   are commutative increments, so any serializable interleaving must
//!   match the serial digest — a lost write, double-apply, or
//!   phantom-resolved ticket shows up as a per-key mismatch.
//!
//! Runs against NO_WAIT (abort-heavy 2PL) and SILO (epoch OCC) — the two
//! ends of the pessimistic/optimistic spectrum.

use std::sync::Arc;

use abyss::common::{CcScheme, Priority};
use abyss::core::executor::run_template;
use abyss::core::schemes::NoWait;
use abyss::core::{
    Database, EngineConfig, ProcRegistry, ServeConfig, SubmitError, TicketStatus, TxnService,
    TxnTicket,
};
use abyss::storage::{row, Catalog, Schema};
use abyss::workload::procs;
use abyss::workload::ycsb::YCSB_TABLE;

const ROWS: u64 = 512;
const WORKERS: u32 = 2;
const PRODUCERS: u32 = 3;
const TXNS_PER_PRODUCER: u64 = 2_000;
const REQS_PER_TXN: usize = 8;
const HIGH_PCT: f64 = 0.10;

fn build_db(scheme: CcScheme) -> Arc<Database> {
    let mut cat = Catalog::new();
    cat.add_table("usertable", Schema::key_plus_payload(2, 8), ROWS * 2);
    let db = Database::new(EngineConfig::new(scheme, WORKERS), cat).expect("engine config");
    db.load_table(YCSB_TABLE, 0..ROWS, |s, r, k| {
        row::set_u64(s, r, 0, k);
        row::set_u64(s, r, 1, 0);
    })
    .expect("load");
    db
}

fn registry() -> ProcRegistry {
    let mut reg = ProcRegistry::new();
    for (name, f) in procs::all() {
        reg.register(name, Box::new(f));
    }
    reg
}

/// Deterministic per-producer argument stream: distinct uniform keys and
/// a 50/50 read/update mask, encoded through the same codec the service
/// decodes with.
fn draw_args(rng: &mut abyss::common::rng::Xoshiro256) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(REQS_PER_TXN);
    while keys.len() < REQS_PER_TXN {
        let k = rng.next_below(ROWS);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let mask = rng.next_u64() & ((1 << REQS_PER_TXN) - 1);
    procs::ycsb_rmw_args(mask, &keys)
}

struct ProducerLog {
    /// `(args, ticket)` for every submit that returned a ticket.
    tickets: Vec<(Vec<u64>, TxnTicket)>,
    queue_full: u64,
}

fn overload_run(scheme: CcScheme) {
    let db = build_db(scheme);
    // Equal admission bound for both classes (shed_depth == capacity, so
    // the high class's 2× depth allowance clamps to the same limit):
    // priority may only come from dequeue order, not a deeper queue.
    let cfg = ServeConfig {
        queue_capacity: 64,
        shed_depth: 64,
        block_on_full: false,
        high_burst: 8,
        producer_hint: PRODUCERS,
        ..ServeConfig::default()
    };
    let svc = Arc::new(TxnService::start(Arc::clone(&db), registry(), cfg));
    let ycsb = svc.proc_id(procs::PROC_YCSB_RMW).expect("registered");

    let mut logs: Vec<ProducerLog> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let svc = Arc::clone(&svc);
            handles.push(s.spawn(move || {
                let mut rng =
                    abyss::common::rng::Xoshiro256::seed_from(0xC0FFEE ^ (u64::from(p) << 32));
                let mut log = ProducerLog {
                    tickets: Vec::new(),
                    queue_full: 0,
                };
                for _ in 0..TXNS_PER_PRODUCER {
                    let prio = if rng.chance(HIGH_PCT) {
                        Priority::High
                    } else {
                        Priority::Low
                    };
                    let args = draw_args(&mut rng);
                    match svc.submit_id(ycsb, &args, prio) {
                        Ok(t) => log.tickets.push((args, t)),
                        Err(SubmitError::QueueFull) => log.queue_full += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                log
            }));
        }
        logs = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    let accepted = svc.accepted();
    let svc = Arc::into_inner(svc).expect("producers joined");
    let stats = svc.shutdown();

    // ---- (a) no accepted ticket lost -------------------------------------
    let mut by_status = [0u64; 4]; // committed, aborted, failed, shed
    let mut committed_args: Vec<&[u64]> = Vec::new();
    for log in &logs {
        for (args, t) in &log.tickets {
            assert!(t.is_resolved(), "unresolved ticket after shutdown");
            match t.status() {
                TicketStatus::Committed => {
                    by_status[0] += 1;
                    committed_args.push(args);
                }
                TicketStatus::Aborted(_) => by_status[1] += 1,
                TicketStatus::Failed => by_status[2] += 1,
                TicketStatus::Pending => unreachable!("resolved ticket is pending"),
                TicketStatus::Shed => by_status[3] += 1,
            }
        }
    }
    let ticketed: u64 = logs.iter().map(|l| l.tickets.len() as u64).sum();
    let queue_full: u64 = logs.iter().map(|l| l.queue_full).sum();
    assert_eq!(
        ticketed + queue_full,
        u64::from(PRODUCERS) * TXNS_PER_PRODUCER,
        "every submission accounted for"
    );
    let shed_total: u64 = stats.sheds.iter().sum();
    assert_eq!(by_status[3], shed_total, "shed tickets match shed counters");
    assert_eq!(
        by_status[0] + by_status[1] + by_status[2],
        accepted,
        "every accepted request resolved by a worker"
    );
    assert_eq!(by_status[0], stats.commits, "commit counters agree");
    assert_eq!(by_status[2], 0, "no internal failures");
    assert!(
        shed_total > 0,
        "{scheme:?}: overload never engaged shedding (accepted={accepted})"
    );

    // ---- (b) high priority beats low under overload ----------------------
    let hi = &stats.queue_ack_latency[Priority::High.idx()];
    let lo = &stats.queue_ack_latency[Priority::Low.idx()];
    assert!(hi.count() > 0 && lo.count() > 0, "both classes were served");
    // The mean would be diluted by the shallow-queue requests accepted
    // before the backlog builds; the p99 lives in the deep phase where
    // priority dequeue decides who waits.
    assert!(
        hi.p99() <= lo.p99(),
        "{scheme:?}: high-class p99 {}ns above low-class p99 {}ns under overload",
        hi.p99(),
        lo.p99()
    );

    // ---- (c) drain digest == serial replay of committed txns -------------
    let replay_db = build_db(CcScheme::NoWait);
    let mut ctx = replay_db.worker_as::<NoWait>(0);
    for args in &committed_args {
        let tmpl = procs::ycsb_rmw(args);
        run_template(&mut ctx, &tmpl).expect("serial replay commits");
    }
    for k in 0..ROWS {
        let live = row::get_u64(db.schema(YCSB_TABLE), &db.peek(YCSB_TABLE, k).unwrap(), 1);
        let replayed = row::get_u64(
            replay_db.schema(YCSB_TABLE),
            &replay_db.peek(YCSB_TABLE, k).unwrap(),
            1,
        );
        assert_eq!(
            live, replayed,
            "{scheme:?}: key {k} diverged from serial replay of committed txns"
        );
    }
}

#[test]
fn overload_conformance_no_wait() {
    overload_run(CcScheme::NoWait);
}

#[test]
fn overload_conformance_silo() {
    overload_run(CcScheme::Silo);
}

/// Cancellation from a token mid-stream: producers start seeing `Stopped`,
/// the drain still resolves every accepted ticket, and shutdown returns.
#[test]
fn cancel_token_stops_admission_and_drains() {
    let db = build_db(CcScheme::NoWait);
    let svc = TxnService::start(db, registry(), ServeConfig::default());
    let ycsb = svc.proc_id(procs::PROC_YCSB_RMW).unwrap();
    let mut rng = abyss::common::rng::Xoshiro256::seed_from(7);
    let mut tickets = Vec::new();
    for _ in 0..100 {
        tickets.push(
            svc.submit_id(ycsb, &draw_args(&mut rng), Priority::Low)
                .unwrap(),
        );
    }
    let token = svc.cancel_token();
    token.cancel();
    assert_eq!(
        svc.submit_id(ycsb, &draw_args(&mut rng), Priority::High)
            .unwrap_err(),
        SubmitError::Stopped
    );
    let stats = svc.shutdown();
    for t in &tickets {
        assert!(t.is_resolved(), "cancelled service must still drain");
    }
    assert!(stats.commits <= 100);
}
