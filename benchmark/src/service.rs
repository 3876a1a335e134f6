//! `service_open`: requests through the serving front end
//! (`TxnService`): queue hop, ticket, admission, wake-ups.
//!
//! One producer/collector thread (this one) submits `ycsb_rmw` requests
//! and polls their tickets; `Ws = max(1, min(nproc, 4) - 1)` service
//! workers execute them, so producer plus workers never exceed `nproc`.
//!
//! * `cap` — closed loop, 64 tickets outstanding, all nine schemes in turn:
//!   acknowledgements per second is that scheme's `txn_per_s` here.
//! * `lo` / `hi` — open loop on NO_WAIT (it aborts, never blocks) at 20 000
//!   and 80 000 requests/s per service worker. Every request is timed from
//!   the instant it was *due* to the instant the collector saw its ticket
//!   resolved, so a stalled generator's delay counts; how late the
//!   generator ran is recorded too.

use std::sync::Arc;
use std::time::Duration;

use abyss_common::{CcScheme, KeySpec, Phase, PinPolicy, Priority};
use abyss_core::executor::HOT_COL;
use abyss_core::{
    Database, EngineConfig, ProcId, ProcRegistry, ServeConfig, SubmitError, TicketStatus,
    TxnService, TxnTicket,
};
use abyss_workload::procs;
use abyss_workload::ycsb::{self, YcsbGen, YCSB_TABLE};

use crate::engine::{self, ycsb_config, Env};
use crate::report::RunResult;
use crate::stats::{self, latency_line, quantile_us};
use crate::trace::{now_ns, TraceSink, Tracer, ROOT};

const ROWS: u64 = 100_000;
const THETA: f64 = 0.6;
/// Tickets the closed loop keeps in flight.
const OUTSTANDING: usize = 64;
/// Open-loop rates, requests per second per service worker (about 13 %
/// and 50 % of NO_WAIT's measured capacity on the box this was sized on).
pub const RATE_LO: u64 = 20_000;
pub const RATE_HI: u64 = 80_000;
/// Pre-generated requests, cycled through; the producer is a client and
/// its generation cost is not the system's.
const POOL: usize = 1 << 16;

pub fn service_workers(env: &Env) -> u32 {
    env.workers.saturating_sub(1).max(1)
}

/// The request pool: argument vectors for `ycsb_rmw`, with how many
/// updates each holds (for the output check) and its priority class.
pub struct Requests {
    args: Vec<Vec<u64>>,
    updates: Vec<u64>,
    prio: Vec<Priority>,
}

impl Requests {
    /// 16 accesses, 50 % updates, theta 0.6 over 100 000 rows, one request
    /// in ten `Priority::High` — drawn from the YCSB generator so the keys
    /// are what the closed-loop workloads would see.
    pub fn generate(seed: u64) -> Self {
        let mut gen = YcsbGen::new(ycsb_config(ROWS, 0.5, THETA, CcScheme::NoWait, 1), seed);
        let mut r = Requests {
            args: Vec::with_capacity(POOL),
            updates: Vec::with_capacity(POOL),
            prio: Vec::with_capacity(POOL),
        };
        for i in 0..POOL {
            let t = gen.next_txn();
            let mut mask = 0u64;
            let mut keys = Vec::with_capacity(t.accesses.len());
            for (bit, a) in t.accesses.iter().enumerate() {
                mask |= u64::from(a.op.is_write()) << bit;
                let KeySpec::Fixed(k) = a.key else {
                    unreachable!("YCSB only generates fixed keys")
                };
                keys.push(k);
            }
            r.updates.push(u64::from(mask.count_ones()));
            r.args.push(procs::ycsb_rmw_args(mask, &keys));
            r.prio.push(if i % 10 == 0 {
                Priority::High
            } else {
                Priority::Low
            });
        }
        r
    }

    pub fn args(&self, i: usize) -> &[u64] {
        &self.args[i % POOL]
    }
}

/// A running service over a freshly loaded database.
pub struct Service {
    pub db: Arc<Database>,
    pub svc: TxnService,
    pub proc_id: ProcId,
    hot0: u64,
    pub setup_s: f64,
}

impl Service {
    /// Catalog + `Database::new` + load + `TxnService::start`, timed.
    pub fn start(scheme: CcScheme, workers: u32, breakdown: bool) -> Self {
        let t = std::time::Instant::now();
        let mut cfg = EngineConfig::new(scheme, workers).with_pinning(PinPolicy::Compact);
        if breakdown {
            cfg = cfg.with_breakdown();
        }
        let y = ycsb_config(ROWS, 0.5, THETA, CcScheme::NoWait, 1);
        let db = Database::new(cfg, ycsb::catalog(&y)).expect("engine config");
        db.load_table(YCSB_TABLE, 0..ROWS, ycsb::init_row)
            .expect("load usertable");
        let mut reg = ProcRegistry::new();
        let proc_id = if scheme == CcScheme::HStore {
            // H-STORE must be told its partitions; the stock decoder
            // declares none, so wrap it: a key lives in `key % workers`.
            let parts = u64::from(workers);
            reg.register(
                procs::PROC_YCSB_RMW,
                Box::new(move |args: &[u64]| {
                    let mut t = procs::ycsb_rmw(args);
                    let mut p: Vec<u32> = args[1..].iter().map(|k| (k % parts) as u32).collect();
                    p.sort_unstable();
                    p.dedup();
                    t.partitions = p;
                    t
                }),
            )
        } else {
            reg.register(procs::PROC_YCSB_RMW, Box::new(procs::ycsb_rmw))
        };
        let svc = TxnService::start(
            Arc::clone(&db),
            reg,
            // Fail fast on a full queue, and a queue deep enough (~100 ms
            // at the hi rate) that a hypervisor stall of a few ms does not
            // shed: a request shed here should mean the engine fell behind,
            // not that the host paused.
            ServeConfig {
                block_on_full: false,
                queue_capacity: 16_384,
                shed_depth: 8_192,
                ..ServeConfig::default()
            },
        );
        let setup_s = t.elapsed().as_secs_f64();
        let hot0 = db.sum_column(YCSB_TABLE, HOT_COL);
        Self {
            db,
            svc,
            proc_id,
            hot0,
            setup_s,
        }
    }

    /// Drain, then check the hot column against the committed requests.
    /// Returns scheduler aborts the workers retried.
    pub fn finish(self, committed_updates: u64, who: &str, res: &mut RunResult) -> u64 {
        let stats = self.svc.shutdown();
        let delta = self
            .db
            .sum_column(YCSB_TABLE, HOT_COL)
            .wrapping_sub(self.hot0);
        res.check(delta == committed_updates, || {
            format!(
                "{who}: hot column grew by {delta}, committed requests hold {committed_updates} updates"
            )
        });
        stats.total_aborts()
    }
}

/// How the requests of one phase ended. `submitted` counts every
/// `submit_id` call; each ends in exactly one of the other buckets.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub submitted: u64,
    pub committed: u64,
    /// Shed at admission (`TicketStatus::Shed`).
    pub shed: u64,
    /// Refused by a full queue (`SubmitError::QueueFull`).
    pub refused: u64,
    /// `Failed`, `Aborted`, or a stopped service.
    pub other: u64,
    /// Updates held by the committed requests.
    pub updates: u64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.shed + self.refused + self.other
    }

    fn add(&mut self, o: &Outcome) {
        self.submitted += o.submitted;
        self.committed += o.committed;
        self.shed += o.shed;
        self.refused += o.refused;
        self.other += o.other;
        self.updates += o.updates;
    }

    fn resolved(&mut self, status: TicketStatus, updates: u64) {
        match status {
            TicketStatus::Committed => {
                self.committed += 1;
                self.updates += updates;
            }
            TicketStatus::Shed => self.shed += 1,
            _ => self.other += 1,
        }
    }

    fn rejected(&mut self, e: SubmitError) {
        match e {
            SubmitError::QueueFull => self.refused += 1,
            _ => self.other += 1,
        }
    }
}

/// Position in the request pool; carries on across phases.
pub struct Cursor(pub usize);

struct InFlight {
    ticket: TxnTicket,
    req: usize,
    /// When the request was due; in the closed loop, when it was submitted.
    t_due: u64,
    /// `submit_id` called / returned (for the spans).
    t_call: u64,
    t_submitted: u64,
}

impl InFlight {
    /// The spans of one request: due -> resolution seen, and inside it the
    /// `submit_id` call and the wait on the ticket.
    fn trace(&self, tr: &mut Tracer, now: u64) {
        let op = self.req as u64;
        let root = tr.span("request", self.t_due, now, ROOT, op);
        tr.span("submit_id", self.t_call, self.t_submitted, root, op);
        tr.span("ticket", self.t_submitted, now, root, op);
    }
}

/// Run `f` as the producer: on a thread of its own, pinned to the core
/// after the service workers'. The main thread is never pinned — threads
/// inherit their parent's affinity mask and the engine places its workers
/// by the mask it finds, so service workers started from a pinned thread
/// would all land on one core.
pub fn on_producer_core<R: Send>(s: &Service, f: impl FnOnce() -> R + Send) -> R {
    let ws = s.db.config().workers;
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                PinPolicy::Compact.apply(ws, ws + 1);
                f()
            })
            .join()
            .expect("producer thread panicked")
    })
}

/// Closed loop: keep [`OUTSTANDING`] tickets in flight for `dur`, then
/// drain. Returns acknowledgements per second inside the window.
pub fn closed(
    s: &Service,
    reqs: &Requests,
    cur: &mut Cursor,
    dur: Duration,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> f64 {
    on_producer_core(s, || closed_loop(s, reqs, cur, dur, out, tracer))
}

fn closed_loop(
    s: &Service,
    reqs: &Requests,
    cur: &mut Cursor,
    dur: Duration,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let mut slots: Vec<InFlight> = Vec::with_capacity(OUTSTANDING);
    let start = now_ns();
    let deadline = start + dur.as_nanos() as u64;
    let mut acks_in_window = 0u64;
    let mut submit = |slots: &mut Vec<InFlight>, out: &mut Outcome| {
        let req = cur.0;
        cur.0 += 1;
        out.submitted += 1;
        let t_call = now_ns();
        match s
            .svc
            .submit_id(s.proc_id, reqs.args(req), reqs.prio[req % POOL])
        {
            Ok(ticket) => slots.push(InFlight {
                ticket,
                req,
                t_due: t_call,
                t_call,
                t_submitted: now_ns(),
            }),
            Err(e) => out.rejected(e),
        }
    };
    for _ in 0..OUTSTANDING {
        submit(&mut slots, out);
    }
    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let status = slots[i].ticket.status();
            if !status.is_resolved() {
                i += 1;
                continue;
            }
            let done = slots.swap_remove(i);
            let now = now_ns();
            out.resolved(status, reqs.updates[done.req % POOL]);
            if let Some(tr) = tracer.as_deref_mut() {
                done.trace(tr, now);
            }
            if now < deadline {
                acks_in_window += 1;
                submit(&mut slots, out);
            }
        }
    }
    acks_in_window as f64 / dur.as_secs_f64()
}

/// What one open-loop phase measured.
pub struct OpenOut {
    /// Due -> resolution seen, per committed request, ascending (ns).
    pub lat_sorted: Vec<u32>,
    /// How far behind its schedule the generator submitted, ascending (ns).
    pub late_sorted: Vec<u32>,
    pub outcome: Outcome,
}

/// Open loop: `rate_per_s` requests per second for `dur`, each submitted
/// when due whatever happened to the ones before it.
pub fn open(
    s: &Service,
    reqs: &Requests,
    cur: &mut Cursor,
    rate_per_s: u64,
    dur: Duration,
    tracer: Option<&mut Tracer>,
) -> OpenOut {
    on_producer_core(s, || open_loop(s, reqs, cur, rate_per_s, dur, tracer))
}

fn open_loop(
    s: &Service,
    reqs: &Requests,
    cur: &mut Cursor,
    rate_per_s: u64,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> OpenOut {
    let n = (rate_per_s as f64 * dur.as_secs_f64()) as u64;
    let mut o = OpenOut {
        lat_sorted: Vec::with_capacity(n as usize),
        late_sorted: Vec::with_capacity(n as usize),
        outcome: Outcome::default(),
    };
    let mut flying: Vec<InFlight> = Vec::with_capacity(1024);
    let clamp = |ns: u64| ns.min(u64::from(u32::MAX)) as u32;
    let start = now_ns();
    let mut next = 0u64;
    while next < n || !flying.is_empty() {
        while next < n {
            let due = start + stats::due_ns(next, rate_per_s);
            let now = now_ns();
            if due > now {
                break;
            }
            o.late_sorted.push(clamp(now - due));
            let req = cur.0;
            cur.0 += 1;
            next += 1;
            o.outcome.submitted += 1;
            match s
                .svc
                .submit_id(s.proc_id, reqs.args(req), reqs.prio[req % POOL])
            {
                Ok(ticket) => flying.push(InFlight {
                    ticket,
                    req,
                    t_due: due,
                    t_call: now,
                    t_submitted: now_ns(),
                }),
                Err(e) => o.outcome.rejected(e),
            }
        }
        let mut i = 0;
        while i < flying.len() {
            let status = flying[i].ticket.status();
            if !status.is_resolved() {
                i += 1;
                continue;
            }
            let done = flying.swap_remove(i);
            let now = now_ns();
            o.outcome.resolved(status, reqs.updates[done.req % POOL]);
            if status == TicketStatus::Committed {
                o.lat_sorted.push(clamp(now - done.t_due));
            }
            if let Some(tr) = tracer.as_deref_mut() {
                done.trace(tr, now);
            }
        }
    }
    o.lat_sorted.sort_unstable();
    o.late_sorted.sort_unstable();
    o
}

/// Every request must have resolved one way or another.
fn account(out: &Outcome, who: &str, res: &mut RunResult) {
    res.attempted += out.submitted;
    res.failed += out.failed();
    res.check(out.committed + out.failed() == out.submitted, || {
        format!(
            "{who}: {} submitted but {} committed + {} shed + {} refused + {} other",
            out.submitted, out.committed, out.shed, out.refused, out.other
        )
    });
}

/// Share of `--seconds` spent on the capacity sweep over the nine schemes
/// (nine numbers to steady); the rest goes to the NO_WAIT open-loop points.
const CAP_SHARE: f64 = 2.0 / 3.0;

/// The untraced run.
pub fn run(env: &Env, res: &mut RunResult) {
    let ws = service_workers(env);
    let reqs = Requests::generate(env.seed);
    let mut cur = Cursor(0);
    let n = CcScheme::ALL.len();

    let (visits, rounds) = engine::shape(env.seconds);
    let round_len =
        Duration::from_secs_f64(env.seconds * CAP_SHARE / f64::from(visits * rounds) / n as f64);
    let mut cap: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); n];
    for v in 0..visits {
        for (i, &scheme) in CcScheme::ALL.iter().enumerate() {
            let s = Service::start(scheme, ws, false);
            setup[i].push(s.setup_s);
            let mut out = Outcome::default();
            closed(&s, &reqs, &mut cur, round_len.mul_f64(0.75), &mut out, None);
            for _ in 0..rounds {
                cap[i].push(closed(&s, &reqs, &mut cur, round_len, &mut out, None));
            }
            let who = format!("{} cap visit {v}", scheme.name());
            s.finish(out.updates, &who, res);
            account(&out, &who, res);
        }
    }
    res.push_per_scheme(cap, &setup);

    // Open loop: one NO_WAIT service, a discarded warm phase, then lo and
    // hi rounds alternating. hi rounds are twice as long as lo rounds:
    // their median is the gated number.
    let open_rounds = if env.seconds < 6.0 { 1 } else { 3 };
    let hi_len = Duration::from_secs_f64(
        env.seconds * (1.0 - CAP_SHARE) * 2.0 / 3.0 / f64::from(open_rounds),
    );
    let s = Service::start(CcScheme::NoWait, ws, false);
    let mut total = Outcome::default();
    let warm = open(
        &s,
        &reqs,
        &mut cur,
        RATE_HI * u64::from(ws),
        hi_len / 4,
        None,
    );
    total.add(&warm.outcome);
    let mut p50_hi = Vec::new();
    let (mut lat_lo, mut lat_hi, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..open_rounds {
        let mut lo = open(
            &s,
            &reqs,
            &mut cur,
            RATE_LO * u64::from(ws),
            hi_len / 2,
            None,
        );
        let mut hi = open(&s, &reqs, &mut cur, RATE_HI * u64::from(ws), hi_len, None);
        total.add(&lo.outcome);
        total.add(&hi.outcome);
        p50_hi.push(quantile_us(&hi.lat_sorted, 0.5));
        lat_lo.append(&mut lo.lat_sorted);
        lat_hi.append(&mut hi.lat_sorted);
        late.append(&mut hi.late_sorted);
    }
    s.finish(total.updates, "NO_WAIT open loop", res);
    account(&total, "NO_WAIT open loop", res);
    for v in [&mut lat_lo, &mut lat_hi, &mut late] {
        v.sort_unstable();
    }
    res.info.push(latency_line(
        &format!("NO_WAIT due->ack at lo ({} req/s)", RATE_LO * u64::from(ws)),
        &lat_lo,
    ));
    res.info.push(latency_line(
        &format!("NO_WAIT due->ack at hi ({} req/s)", RATE_HI * u64::from(ws)),
        &lat_hi,
    ));
    res.info
        .push(latency_line("generator lateness at hi", &late));
    res.info.push(format!(
        "open loop: {} submitted, {} shed, {} refused",
        total.submitted, total.shed, total.refused
    ));
    res.push_rounds("ack_p50_us", "us", p50_hi);
}

/// The traced pass: per scheme one plain and one traced (breakdown on,
/// spans around `submit_id` and ticket resolution) capacity round.
pub fn traced_pass(env: &Env, res: &mut RunResult, sink: &mut TraceSink) {
    let ws = service_workers(env);
    let reqs = Requests::generate(env.seed);
    let mut cur = Cursor(0);
    let n = CcScheme::ALL.len();
    let round_len =
        Duration::from_secs_f64(env.seconds * engine::TRACED_PASS_SHARE / (2 * n) as f64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for &scheme in &CcScheme::ALL {
        for breakdown in [false, true] {
            let s = Service::start(scheme, ws, breakdown);
            let mut out = Outcome::default();
            closed(&s, &reqs, &mut cur, round_len.mul_f64(0.75), &mut out, None);
            let mut tracer =
                breakdown.then(|| Tracer::new(0, (round_len.as_secs_f64() * 3e6) as usize));
            let acks = closed(&s, &reqs, &mut cur, round_len, &mut out, tracer.as_mut());
            let wait_frac = s.db.phase_totals().map_or(0.0, |p| p.fraction(Phase::Wait));
            let who = format!("{} traced cap", scheme.name());
            let retries = s.finish(out.updates, &who, res);
            account(&out, &who, res);
            if let Some(tr) = tracer {
                traced.push(acks);
                res.push_contention(scheme, retries, out.committed, wait_frac);
                sink.add(scheme.name(), vec![tr]);
            } else {
                plain.push(acks);
            }
        }
    }
    res.push(
        "core.obs.trace_overhead_ratio",
        "ratio",
        stats::geomean(&plain) / stats::geomean(&traced),
    );
}
