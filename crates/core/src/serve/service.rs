//! [`TxnService`]: worker pool + admission control over the shard queues.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use abyss_common::{Priority, RunStats};

use super::queue::{PushOutcome, Request, ShardQueue};
use super::registry::{ProcId, ProcRegistry};
use super::ticket::{TicketInner, TicketStatus, TxnTicket};
use super::{ServeConfig, SubmitError};
use crate::db::Database;
use crate::schemes::CcProtocol;
use crate::worker::{TxnError, WorkerCtx};

/// Recompute the queue-to-ack p99 gauge every this many acks — a 496-slot
/// scan, far too hot to run per transaction.
const P99_GAUGE_EVERY: u32 = 256;

/// State shared between producers, workers, and the cancel token.
struct Shared {
    cfg: ServeConfig,
    registry: ProcRegistry,
    shards: Vec<ShardQueue>,
    /// Admission closed (set by shutdown or a cancel token).
    stop: AtomicBool,
    /// Requests shed at admission, per priority class.
    sheds: [AtomicU64; Priority::COUNT],
    /// Requests accepted into a queue.
    accepted: AtomicU64,
    /// Tickets resolved by workers (excludes sheds).
    acked: AtomicU64,
    /// Per-worker queue-to-ack p99 gauge (ns), refreshed every
    /// [`P99_GAUGE_EVERY`] acks; read by latency-based shedding.
    ack_p99_ns: Vec<AtomicU64>,
}

impl Shared {
    fn close(&self) {
        self.stop.store(true, Ordering::Release);
        for q in &self.shards {
            q.close();
        }
    }
}

/// Cancels a running service from anywhere: closes admission and wakes
/// blocked producers/workers. Already-queued requests still drain; call
/// [`TxnService::shutdown`] to join the workers and collect stats.
#[derive(Clone)]
pub struct CancelToken {
    shared: Arc<Shared>,
}

impl CancelToken {
    /// Close admission and begin the drain.
    pub fn cancel(&self) {
        self.shared.close();
    }

    /// True once the service is stopping.
    pub fn is_cancelled(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }
}

/// The open-loop submission front end (see the [module docs](super)).
///
/// `start` spawns one CC worker per `db.config().workers`, each bound to
/// its own shard queue and monomorphized over the database's scheme.
/// Producers call [`TxnService::submit`] from any thread; `&self` is all
/// they need. [`TxnService::shutdown`] drains and returns merged stats.
pub struct TxnService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<RunStats>>,
    /// Round-robin shard cursor (producers race on it; fairness, not
    /// precision, is the point).
    rr: AtomicUsize,
}

impl TxnService {
    /// Spawn the worker pool and open admission. One worker (and one
    /// shard) per `db.config().workers`.
    pub fn start(db: Arc<Database>, registry: ProcRegistry, cfg: ServeConfig) -> Self {
        cfg.validate();
        assert!(!registry.is_empty(), "no stored procedures registered");
        let workers = db.config().workers;
        if workers as usize + cfg.producer_hint as usize > abyss_common::available_cores() {
            // Producers + workers oversubscribe the machine: collapse the
            // park spin ladder so waiting workers yield the core early.
            db.park.set_early_yield(true);
        }
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| ShardQueue::new(cfg.queue_capacity))
                .collect(),
            stop: AtomicBool::new(false),
            sheds: [AtomicU64::new(0), AtomicU64::new(0)],
            accepted: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            ack_p99_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            cfg,
            registry,
        });
        let scheme = db.scheme();
        let pin = db.config().pin;
        let handles = (0..workers)
            .map(|w| {
                let db = Arc::clone(&db);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("abyss-serve-{w}"))
                    .spawn(move || {
                        // Same placement policy as the bench drivers:
                        // best-effort, before the worker touches any
                        // shared state.
                        pin.apply(w, workers);
                        crate::schemes::dispatch_protocol!(scheme, P => {
                            worker_loop::<P>(db, shared, w)
                        })
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            handles,
            rr: AtomicUsize::new(0),
        }
    }

    /// Submit by procedure name. See [`TxnService::submit_id`].
    pub fn submit(
        &self,
        proc_name: &str,
        args: &[u64],
        prio: Priority,
    ) -> Result<TxnTicket, SubmitError> {
        let id = self
            .shared
            .registry
            .id(proc_name)
            .ok_or(SubmitError::UnknownProc)?;
        self.submit_id(id, args, prio)
    }

    /// Submit one request: build the template, run admission control, and
    /// enqueue. Returns a [`TxnTicket`] that resolves exactly once —
    /// including shed requests, whose ticket comes back already resolved
    /// as [`TicketStatus::Shed`]. Errors never enqueue anything.
    pub fn submit_id(
        &self,
        id: ProcId,
        args: &[u64],
        prio: Priority,
    ) -> Result<TxnTicket, SubmitError> {
        let shared = &*self.shared;
        if shared.stop.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        let tmpl = shared.registry.build(id, args);
        let si = self.rr.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
        let shard = &shared.shards[si];
        let ticket_inner = TicketInner::new();
        let ticket = TxnTicket {
            inner: Arc::clone(&ticket_inner),
        };
        if self.should_shed(si, prio) {
            shared.sheds[prio.idx()].fetch_add(1, Ordering::Relaxed);
            ticket_inner.resolve(TicketStatus::Shed);
            return Ok(ticket);
        }
        let req = Request {
            tmpl,
            prio,
            submitted: Instant::now(),
            ticket: ticket_inner,
        };
        match shard.push(req, shared.cfg.block_on_full) {
            PushOutcome::Ok => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            PushOutcome::Full => Err(SubmitError::QueueFull),
            PushOutcome::Closed => Err(SubmitError::Stopped),
        }
    }

    /// Submit a batch of requests in one call, amortizing the per-submit
    /// overhead: one round-robin shard pick and one queue-lock acquisition
    /// cover the whole batch (the batch lands on a single shard, FIFO in
    /// input order within each priority class).
    ///
    /// Admission control still runs per request — shed requests come back
    /// as already-resolved [`TicketStatus::Shed`] tickets, exactly like
    /// [`TxnService::submit`]. The returned tickets are in input order.
    /// Errors are all-or-nothing: an unknown procedure name, a full shard
    /// (non-blocking config), or a stopped service enqueues *nothing*.
    pub fn submit_batch(
        &self,
        batch: &[(&str, &[u64], Priority)],
    ) -> Result<Vec<TxnTicket>, SubmitError> {
        let shared = &*self.shared;
        if shared.stop.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        // Resolve every name before building anything: an unknown
        // procedure fails the whole batch with nothing submitted.
        let ids: Vec<ProcId> = batch
            .iter()
            .map(|(name, _, _)| shared.registry.id(name).ok_or(SubmitError::UnknownProc))
            .collect::<Result<_, _>>()?;
        // One shard pick for the whole batch — the amortization point.
        let si = self.rr.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
        let shard = &shared.shards[si];
        let now = Instant::now();
        let mut tickets = Vec::with_capacity(batch.len());
        let mut reqs = Vec::with_capacity(batch.len());
        let mut shed = Vec::new();
        for (id, &(_, args, prio)) in ids.into_iter().zip(batch) {
            let inner = TicketInner::new();
            tickets.push(TxnTicket {
                inner: Arc::clone(&inner),
            });
            if self.should_shed(si, prio) {
                shed.push((inner, prio));
                continue;
            }
            reqs.push(Request {
                tmpl: shared.registry.build(id, args),
                prio,
                submitted: now,
                ticket: inner,
            });
        }
        let accepted = reqs.len() as u64;
        match shard.push_batch(reqs, shared.cfg.block_on_full) {
            PushOutcome::Ok => {
                shared.accepted.fetch_add(accepted, Ordering::Relaxed);
                // Shed tickets resolve only once the rest of the batch is
                // definitely in — an errored batch resolves nothing.
                for (inner, prio) in shed {
                    shared.sheds[prio.idx()].fetch_add(1, Ordering::Relaxed);
                    inner.resolve(TicketStatus::Shed);
                }
                Ok(tickets)
            }
            PushOutcome::Full => Err(SubmitError::QueueFull),
            PushOutcome::Closed => Err(SubmitError::Stopped),
        }
    }

    /// Admission control: shed low-class requests once the target shard's
    /// depth reaches `shed_depth` (high-class at twice that, capped by the
    /// capacity), or — low class only — once the worker's queue-to-ack p99
    /// gauge crosses `shed_ack_p99_ns`.
    fn should_shed(&self, si: usize, prio: Priority) -> bool {
        let cfg = &self.shared.cfg;
        let depth = self.shared.shards[si].depth();
        let depth_limit = match prio {
            Priority::Low => cfg.shed_depth,
            Priority::High => (cfg.shed_depth * 2).min(cfg.queue_capacity),
        };
        if depth >= depth_limit {
            return true;
        }
        prio == Priority::Low
            && cfg.shed_ack_p99_ns > 0
            && self.shared.ack_p99_ns[si].load(Ordering::Relaxed) > cfg.shed_ack_p99_ns
    }

    /// Resolve a procedure name once; pair with [`TxnService::submit_id`]
    /// to skip the per-submit name lookup on hot producer paths.
    pub fn proc_id(&self, proc_name: &str) -> Option<ProcId> {
        self.shared.registry.id(proc_name)
    }

    /// A handle that can stop the service from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Approximate total queued requests across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shared.shards.iter().map(ShardQueue::depth).sum()
    }

    /// Requests shed at admission so far, per priority class.
    pub fn sheds(&self) -> [u64; Priority::COUNT] {
        [
            self.shared.sheds[0].load(Ordering::Relaxed),
            self.shared.sheds[1].load(Ordering::Relaxed),
        ]
    }

    /// Requests accepted into a queue so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Tickets resolved by workers so far (excludes sheds).
    pub fn acked(&self) -> u64 {
        self.shared.acked.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: close admission, let every worker drain its
    /// queue (every accepted ticket resolves), join the pool, and return
    /// the merged run statistics — per-priority queue-to-ack histograms
    /// plus the admission shed counts.
    pub fn shutdown(mut self) -> RunStats {
        self.shared.close();
        let mut merged = RunStats::default();
        for h in self.handles.drain(..) {
            merged.merge(&h.join().expect("serve worker panicked"));
        }
        for p in Priority::ALL {
            merged.sheds[p.idx()] += self.shared.sheds[p.idx()].load(Ordering::Relaxed);
        }
        merged
    }
}

impl Drop for TxnService {
    fn drop(&mut self) {
        // A dropped (not shut down) service must not leak worker threads.
        self.shared.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The per-worker serve loop: pop → execute (monomorphized hot path) →
/// record queue-to-ack latency → resolve the ticket. Exits when its shard
/// is closed and drained.
fn worker_loop<P: CcProtocol>(db: Arc<Database>, shared: Arc<Shared>, w: u32) -> RunStats {
    let mut ctx = WorkerCtx::<P>::new(db, w);
    let started = Instant::now();
    let shard = &shared.shards[w as usize];
    let mut acks_since_gauge = 0u32;
    while let Some(req) = shard.pop(shared.cfg.high_burst) {
        let status = match crate::executor::run_template(&mut ctx, &req.tmpl) {
            Ok(()) => {
                ctx.stats.record_commit(req.tmpl.tag);
                ctx.stats.tuples_committed += req.tmpl.len() as u64;
                TicketStatus::Committed
            }
            // Scheduler aborts retry inside run_template; what surfaces
            // here is terminal for this request but not for the worker.
            Err(TxnError::Abort(r)) => {
                ctx.stats.record_abort(r);
                TicketStatus::Aborted(r)
            }
            Err(TxnError::Db(_)) => TicketStatus::Failed,
        };
        let ack_ns = req.submitted.elapsed().as_nanos() as u64;
        ctx.stats.queue_ack_latency[req.prio.idx()].record(ack_ns);
        req.ticket.resolve(status);
        shared.acked.fetch_add(1, Ordering::Relaxed);
        acks_since_gauge += 1;
        if acks_since_gauge >= P99_GAUGE_EVERY {
            acks_since_gauge = 0;
            let qs = &ctx.stats.queue_ack_latency;
            let p99 = Priority::ALL
                .iter()
                .map(|p| qs[p.idx()].p99())
                .max()
                .unwrap_or(0);
            shared.ack_p99_ns[w as usize].store(p99, Ordering::Relaxed);
        }
    }
    ctx.stats.elapsed = started.elapsed().as_nanos() as u64;
    ctx.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use abyss_common::{AccessOp, AccessSpec, CcScheme, TxnTemplate};
    use abyss_storage::{row, Catalog, Schema};

    fn db(scheme: CcScheme, workers: u32) -> Arc<Database> {
        let mut cat = Catalog::new();
        cat.add_table("t", Schema::key_plus_payload(2, 8), 4096);
        let db = Database::new(EngineConfig::new(scheme, workers), cat).unwrap();
        db.load_table(0, 0..256u64, |s, r, k| {
            row::set_u64(s, r, 0, k);
            row::set_u64(s, r, 1, 0);
        })
        .unwrap();
        db
    }

    fn bump_registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        // args = keys to increment (commutative fetch-add updates).
        reg.register(
            "bump",
            Box::new(|args: &[u64]| {
                TxnTemplate::new(
                    args.iter()
                        .map(|&k| AccessSpec::fixed(0, k, AccessOp::Update))
                        .collect(),
                )
            }),
        );
        reg
    }

    #[test]
    fn submit_executes_and_resolves() {
        let db = db(CcScheme::NoWait, 2);
        let svc = TxnService::start(Arc::clone(&db), bump_registry(), ServeConfig::default());
        let tickets: Vec<_> = (0..64)
            .map(|i| {
                svc.submit("bump", &[i % 8, 100 + i % 4], Priority::Low)
                    .expect("submit")
            })
            .collect();
        for t in &tickets {
            assert_eq!(t.wait(), TicketStatus::Committed);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.commits, 64);
        assert_eq!(stats.sheds, [0, 0]);
        assert_eq!(
            stats.queue_ack_latency[Priority::Low.idx()].count(),
            64,
            "every ack recorded in the low-class histogram"
        );
        // Effects visible: 64 txns × 2 updates spread over the keys.
        let total: u64 = (0..8)
            .chain(100..104)
            .map(|k| row::get_u64(db.schema(0), &db.peek(0, k).unwrap(), 1))
            .sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn batched_submit_executes_all_and_preserves_order() {
        let db = db(CcScheme::NoWait, 2);
        let svc = TxnService::start(Arc::clone(&db), bump_registry(), ServeConfig::default());
        // 16 batches of 8 — same effect as 128 single submits, one shard
        // pick and one lock acquisition per batch.
        let mut tickets = Vec::new();
        for b in 0..16u64 {
            let args: Vec<[u64; 1]> = (0..8).map(|i| [(b * 8 + i) % 32]).collect();
            let batch: Vec<(&str, &[u64], Priority)> = args
                .iter()
                .map(|a| ("bump", &a[..], Priority::Low))
                .collect();
            tickets.extend(svc.submit_batch(&batch).expect("batch submit"));
        }
        assert_eq!(tickets.len(), 128);
        for t in &tickets {
            assert_eq!(t.wait(), TicketStatus::Committed);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.commits, 128);
        let total: u64 = (0..32)
            .map(|k| row::get_u64(db.schema(0), &db.peek(0, k).unwrap(), 1))
            .sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn batched_submit_fails_whole_batch_on_unknown_proc() {
        let db = db(CcScheme::NoWait, 1);
        let svc = TxnService::start(Arc::clone(&db), bump_registry(), ServeConfig::default());
        let batch: Vec<(&str, &[u64], Priority)> = vec![
            ("bump", &[1][..], Priority::Low),
            ("nope", &[2][..], Priority::Low),
        ];
        assert_eq!(
            svc.submit_batch(&batch).unwrap_err(),
            SubmitError::UnknownProc
        );
        let stats = svc.shutdown();
        assert_eq!(stats.commits, 0, "a failed batch must enqueue nothing");
        // Empty batches succeed trivially.
        let db = db2();
        let svc = TxnService::start(db, bump_registry(), ServeConfig::default());
        assert!(svc.submit_batch(&[]).unwrap().is_empty());
        svc.shutdown();
    }

    fn db2() -> Arc<Database> {
        db(CcScheme::NoWait, 1)
    }

    #[test]
    fn unknown_proc_and_stopped_submit_fail() {
        let db = db(CcScheme::Silo, 1);
        let svc = TxnService::start(db, bump_registry(), ServeConfig::default());
        assert_eq!(
            svc.submit("nope", &[1], Priority::High).unwrap_err(),
            SubmitError::UnknownProc
        );
        let token = svc.cancel_token();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(
            svc.submit("bump", &[1], Priority::High).unwrap_err(),
            SubmitError::Stopped
        );
        let stats = svc.shutdown();
        assert_eq!(stats.commits, 0);
    }

    #[test]
    fn nonblocking_full_shard_reports_queue_full() {
        let db = db(CcScheme::NoWait, 1);
        // Capacity 2 with shedding effectively disabled relative to the
        // bound (shed_depth == capacity): the hard bound is reachable.
        let cfg = ServeConfig {
            queue_capacity: 2,
            shed_depth: 2,
            block_on_full: false,
            ..ServeConfig::default()
        };
        let svc = TxnService::start(db, bump_registry(), cfg);
        // Saturate faster than the single worker can drain: submit until
        // we observe QueueFull or Shed; with capacity 2 one of them must
        // appear quickly.
        let mut full_or_shed = false;
        let mut tickets = Vec::new();
        for i in 0..10_000u64 {
            match svc.submit("bump", &[i % 16], Priority::Low) {
                Ok(t) => {
                    if t.status() == TicketStatus::Shed {
                        full_or_shed = true;
                        break;
                    }
                    tickets.push(t);
                }
                Err(SubmitError::QueueFull) => {
                    full_or_shed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(full_or_shed, "bounded queue never pushed back");
        let stats = svc.shutdown();
        // Every accepted ticket resolved by the drain.
        for t in &tickets {
            assert!(t.is_resolved());
        }
        assert!(stats.commits <= tickets.len() as u64 + 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let db = db(CcScheme::Silo, 2);
        let svc = TxnService::start(Arc::clone(&db), bump_registry(), ServeConfig::default());
        let tickets: Vec<_> = (0..200)
            .map(|i| svc.submit("bump", &[i % 32], Priority::High).unwrap())
            .collect();
        let stats = svc.shutdown();
        for (i, t) in tickets.iter().enumerate() {
            assert!(t.is_resolved(), "ticket {i} unresolved after shutdown");
        }
        assert_eq!(stats.commits, 200);
        let total: u64 = (0..32)
            .map(|k| row::get_u64(db.schema(0), &db.peek(0, k).unwrap(), 1))
            .sum();
        assert_eq!(total, 200);
    }
}
