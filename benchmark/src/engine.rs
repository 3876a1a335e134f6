//! The three closed-loop engine workloads: `ycsb_read`, `ycsb_hot` and
//! `tpcc_durable`.
//!
//! The benchmark drives its own pinned threads: one `WorkerCtx<P>` per
//! worker from `Database::worker_as::<P>`, each looping
//! `next_txn` -> `executor::run_template`. It deliberately does not use
//! the engine's `run_workers*` drivers or read `RunStats` fields — those
//! are being rewritten, and this file must keep compiling unchanged.
//!
//! Shape of a run: `visits` passes over the nine schemes; each visit of a
//! scheme builds a fresh database (timed: that is `setup_s`), runs one
//! discarded warm round, then `rounds` measured rounds, checks the
//! database against what the committed templates should have done, and
//! drops it. A scheme's reported throughput is the median over all its
//! measured rounds, which sit at `visits` separate points of the run — a
//! burst of host noise hits one visit of several schemes, not every round
//! of one.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use abyss_common::zipf::ZipfGen;
use abyss_common::{AbortReason, CcScheme, Phase, PinPolicy, TxnTemplate};
use abyss_core::executor::{self, HOT_COL};
use abyss_core::schemes::CcProtocol;
use abyss_core::{Database, EngineConfig, TxnError, WorkerCtx};
use abyss_storage::FsyncPolicy;
use abyss_workload::tpcc::{self, TpccConfig, TpccGen, TpccTable};
use abyss_workload::ycsb::{self, YcsbConfig, YcsbGen, YCSB_TABLE};

use crate::report::RunResult;
use crate::stats;
use crate::trace::{now_ns, TraceSink, Tracer, ROOT};

/// What the command line fixed for this run.
pub struct Env {
    pub seed: u64,
    /// Measured seconds, shared out over schemes and rounds.
    pub seconds: f64,
    /// Engine workers: `min(nproc, 4)`.
    pub workers: u32,
    /// Where WAL directories, traces and result files go.
    pub out: PathBuf,
}

pub enum Kind {
    Ycsb {
        rows: u64,
        read_pct: f64,
        theta: f64,
    },
    Tpcc,
}

pub struct Spec {
    pub kind: Kind,
    /// WAL on, `FsyncPolicy::Group`, engine defaults otherwise.
    pub durable: bool,
}

/// 200 000 x 1 KB rows is ~205 MB, larger than the last-level cache.
pub const YCSB_READ_ROWS: u64 = 200_000;

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "ycsb_read" => Spec {
            kind: Kind::Ycsb {
                rows: YCSB_READ_ROWS,
                read_pct: 1.0,
                theta: 0.0,
            },
            durable: false,
        },
        "ycsb_hot" => Spec {
            kind: Kind::Ycsb {
                rows: 100_000,
                read_pct: 0.5,
                theta: 0.9,
            },
            durable: false,
        },
        "tpcc_durable" => Spec {
            kind: Kind::Tpcc,
            durable: true,
        },
        _ => return None,
    })
}

/// TPC-C inserts grow tables, so a database only ever runs this many
/// transactions per worker: with `insert_headroom` 4 the ORDER-family
/// tables hold 120 000 rows per warehouse and 45 % of transactions insert
/// one. A round that reaches the cap ends early; its throughput still
/// counts, so a speed-up cannot run a table out of room.
const TPCC_TXNS_PER_WORKER_PER_DB: u64 = 200_000;

pub fn ycsb_config(
    rows: u64,
    read_pct: f64,
    theta: f64,
    scheme: CcScheme,
    workers: u32,
) -> YcsbConfig {
    YcsbConfig {
        table_rows: rows,
        read_pct,
        theta,
        // H-STORE needs its partitions declared: it gets the partitioned
        // generator (one home partition per worker), as in the repo's own
        // figure binaries.
        parts: if scheme == CcScheme::HStore {
            workers
        } else {
            1
        },
        ..YcsbConfig::default()
    }
}

pub fn tpcc_config(workers: u32) -> TpccConfig {
    TpccConfig {
        warehouses: workers,
        workers,
        order_status_pct: 0.10,
        payment_pct: 0.5,
        insert_headroom: 4.0,
        ..TpccConfig::default()
    }
}

/// Build and load a database for `spec` under `scheme`: engine defaults
/// plus pinning, plus logging when the workload is durable, plus the
/// phase breakdown in traced rounds.
pub fn build(
    spec: &Spec,
    scheme: CcScheme,
    workers: u32,
    wal_dir: Option<&Path>,
    breakdown: bool,
) -> Arc<Database> {
    let mut cfg = EngineConfig::new(scheme, workers).with_pinning(PinPolicy::Compact);
    if let Some(dir) = wal_dir {
        cfg = cfg.with_logging(dir, FsyncPolicy::Group);
    }
    if breakdown {
        cfg = cfg.with_breakdown();
    }
    match spec.kind {
        Kind::Ycsb {
            rows,
            read_pct,
            theta,
        } => {
            let y = ycsb_config(rows, read_pct, theta, scheme, workers);
            let db = Database::new(cfg, ycsb::catalog(&y)).expect("engine config");
            db.load_table(YCSB_TABLE, 0..rows, ycsb::init_row)
                .expect("load usertable");
            db
        }
        Kind::Tpcc => {
            let t = tpcc_config(workers);
            let db = Database::new(cfg, tpcc::catalog(&t)).expect("engine config");
            let mut keys: Vec<Vec<u64>> = vec![Vec::new(); db.catalog().len()];
            for (table, key) in tpcc::initial_keys(&t) {
                keys[table as usize].push(key);
            }
            for (table, keys) in keys.into_iter().enumerate() {
                let table = table as u32;
                db.load_table(table, keys, |s, r, k| tpcc::init_row(table, s, r, k))
                    .expect("load tpcc table");
            }
            db
        }
    }
}

pub enum Gen {
    Ycsb(YcsbGen),
    Tpcc(TpccGen),
}

impl Gen {
    #[inline]
    pub fn next_txn(&mut self) -> TxnTemplate {
        match self {
            Gen::Ycsb(g) => g.next_txn(),
            Gen::Tpcc(g) => g.next_txn(),
        }
    }
}

/// One generator per worker, living as long as the database (TPC-C's
/// history keys must stay unique within it). Every scheme sees the same
/// streams for a given seed and visit.
fn make_gens(spec: &Spec, scheme: CcScheme, workers: u32, seed: u64, visit: u32) -> Vec<Gen> {
    let seed_of = |w: u32| seed ^ (u64::from(w) + 1) << 32 ^ (u64::from(visit) + 1) << 48;
    match spec.kind {
        Kind::Ycsb {
            rows,
            read_pct,
            theta,
        } => {
            let cfg = ycsb_config(rows, read_pct, theta, scheme, workers);
            let zipf = ZipfGen::new(rows, theta);
            (0..workers)
                .map(|w| {
                    Gen::Ycsb(
                        YcsbGen::with_zipf(cfg.clone(), zipf.clone(), seed_of(w)).for_worker(w),
                    )
                })
                .collect()
        }
        Kind::Tpcc => (0..workers)
            .map(|w| Gen::Tpcc(TpccGen::new(tpcc_config(workers), w, seed_of(w))))
            .collect(),
    }
}

/// What the committed templates of one or more rounds add up to.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub commits: u64,
    /// Commits per TPC-C tag (Payment, NewOrder, OrderStatus).
    pub by_tag: [u64; 3],
    /// By-design TPC-C user aborts: neither a commit nor a failure.
    pub user_aborts: u64,
    pub failed: u64,
    /// `Update` accesses in committed templates (each adds 1 to HOT_COL).
    pub updates: u64,
}

impl Tally {
    #[inline]
    fn record(&mut self, tmpl: &TxnTemplate, outcome: Result<(), TxnError>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.commits += 1;
                self.by_tag[(tmpl.tag as usize).min(2)] += 1;
                self.updates += tmpl.accesses.iter().filter(|a| a.op.is_write()).count() as u64;
            }
            Err(TxnError::Abort(AbortReason::UserAbort)) => self.user_aborts += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.commits += o.commits;
        for (a, b) in self.by_tag.iter_mut().zip(o.by_tag) {
            *a += b;
        }
        self.user_aborts += o.user_aborts;
        self.failed += o.failed;
        self.updates += o.updates;
    }
}

#[derive(Clone, Copy)]
struct Limit {
    dur: Duration,
    max_txns: u64,
}

/// One worker's closed loop: generate, run to commit, note the time. The
/// latency of a transaction runs from when it was due — the moment the
/// previous one completed — to its own completion, so it includes
/// generation, exactly what a caller waiting on this loop would see.
fn closed_loop<P: CcProtocol>(
    ctx: &mut WorkerCtx<P>,
    gen: &mut Gen,
    lat: &mut Vec<u32>,
    limit: Limit,
    workers: u32,
    go: &Barrier,
) -> Tally {
    PinPolicy::Compact.apply(ctx.worker_id(), workers);
    let mut t = Tally::default();
    go.wait();
    let mut prev = Instant::now();
    let deadline = prev + limit.dur;
    loop {
        let tmpl = gen.next_txn();
        let outcome = executor::run_template(ctx, &tmpl);
        let now = Instant::now();
        t.record(&tmpl, outcome);
        lat.push((now - prev).as_nanos().min(u128::from(u32::MAX)) as u32);
        prev = now;
        if now >= deadline || t.attempted >= limit.max_txns {
            return t;
        }
    }
}

/// [`closed_loop`] with a span around the transaction and, inside it,
/// around generation and `run_template`.
fn traced_loop<P: CcProtocol>(
    ctx: &mut WorkerCtx<P>,
    gen: &mut Gen,
    tracer: &mut Tracer,
    limit: Limit,
    workers: u32,
    go: &Barrier,
) -> Tally {
    PinPolicy::Compact.apply(ctx.worker_id(), workers);
    let mut t = Tally::default();
    go.wait();
    let deadline = now_ns() + limit.dur.as_nanos() as u64;
    let mut t0 = now_ns();
    loop {
        let tmpl = gen.next_txn();
        let t1 = now_ns();
        let outcome = executor::run_template(ctx, &tmpl);
        let t2 = now_ns();
        t.record(&tmpl, outcome);
        let op = u64::from(ctx.worker_id()) << 40 | t.attempted;
        let txn = tracer.span("txn", t0, t2, ROOT, op);
        tracer.span("gen", t0, t1, txn, op);
        tracer.span("run_template", t1, t2, txn, op);
        t0 = t2;
        if t2 >= deadline || t.attempted >= limit.max_txns {
            return t;
        }
    }
}

struct RoundOut {
    wall_s: f64,
    tally: Tally,
    /// Traced rounds only.
    tracers: Vec<Tracer>,
}

/// A database plus its worker contexts with the scheme's type erased, so
/// one loop can visit all nine.
trait Runner {
    fn round(&mut self, gens: &mut [Gen], limit: Limit, traced: bool) -> RoundOut;
    /// Per-transaction latencies of the last untraced round, all workers.
    fn take_latencies(&mut self) -> Vec<u32>;
    /// Scheduler aborts retried so far (`RunStats::total_aborts()` — the
    /// method; `run_template` leaves user aborts to its caller).
    fn retries(&self) -> u64;
}

struct Typed<P: CcProtocol> {
    db: Arc<Database>,
    ctxs: Vec<WorkerCtx<P>>,
    lat: Vec<Vec<u32>>,
}

impl<P: CcProtocol> Typed<P> {
    fn boxed(db: &Arc<Database>) -> Box<dyn Runner> {
        let workers = db.config().workers;
        Box::new(Self {
            db: Arc::clone(db),
            ctxs: (0..workers).map(|w| db.worker_as::<P>(w)).collect(),
            lat: (0..workers).map(|_| Vec::new()).collect(),
        })
    }
}

impl<P: CcProtocol> Runner for Typed<P> {
    fn round(&mut self, gens: &mut [Gen], limit: Limit, traced: bool) -> RoundOut {
        let workers = self.ctxs.len() as u32;
        let go = Barrier::new(self.ctxs.len() + 1);
        // Room for 4 M txn/s per worker, so neither vector grows mid-round.
        let room = (limit.dur.as_secs_f64() * 4e6) as usize;
        let mut tracers: Vec<Tracer> = if traced {
            (0..workers).map(|w| Tracer::new(w, 3 * room)).collect()
        } else {
            Vec::new()
        };
        let mut tally = Tally::default();
        let started = std::thread::scope(|s| {
            let mut handles = Vec::new();
            let mut tracer_iter = tracers.iter_mut();
            for ((ctx, gen), lat) in self.ctxs.iter_mut().zip(gens.iter_mut()).zip(&mut self.lat) {
                let go = &go;
                let tracer = tracer_iter.next();
                lat.clear();
                lat.reserve(room);
                handles.push(s.spawn(move || match tracer {
                    Some(tr) => traced_loop(ctx, gen, tr, limit, workers, go),
                    None => closed_loop(ctx, gen, lat, limit, workers, go),
                }));
            }
            go.wait();
            let started = Instant::now();
            for h in handles {
                tally.add(&h.join().expect("benchmark worker panicked"));
            }
            started
        });
        // Durable workloads: the round is not over until the log is down.
        self.db.log_flush_all();
        RoundOut {
            wall_s: started.elapsed().as_secs_f64(),
            tally,
            tracers,
        }
    }

    fn take_latencies(&mut self) -> Vec<u32> {
        self.lat.iter().flatten().copied().collect()
    }

    fn retries(&self) -> u64 {
        self.ctxs.iter().map(|c| c.stats.total_aborts()).sum()
    }
}

/// Evaluate `$body` with `$p` bound to the protocol type of `$scheme` —
/// the benchmark's own monomorphization point (the engine's dispatch
/// macro is not part of the surface this crate may rely on).
macro_rules! with_protocol {
    ($scheme:expr, $p:ident => $body:expr) => {
        with_protocol!(@each $scheme, $p, $body;
            DlDetect NoWait WaitDie Timestamp Mvcc Occ HStore Silo TicToc)
    };
    // A scheme's enum variant and its protocol type share a name.
    (@each $scheme:expr, $p:ident, $body:expr; $($v:ident)*) => {
        match $scheme {
            $(CcScheme::$v => {
                type $p = abyss_core::schemes::$v;
                $body
            })*
        }
    };
}
pub(crate) use with_protocol;

fn runner(db: &Arc<Database>) -> Box<dyn Runner> {
    with_protocol!(db.scheme(), P => Typed::<P>::boxed(db))
}

/// A fresh, empty directory for one database's log, under the run's out
/// directory; removed again when the visit ends.
pub fn fresh_wal_dir(env: &Env, tag: &str) -> PathBuf {
    let dir = env.out.join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What the database must look like after `tally` committed on top of the
/// freshly loaded state (`hot0` = YCSB hot-column sum before any round).
fn check_state(
    spec: &Spec,
    db: &Database,
    hot0: u64,
    tally: &Tally,
    who: &str,
    res: &mut RunResult,
) {
    match spec.kind {
        Kind::Ycsb { .. } => {
            let delta = db.sum_column(YCSB_TABLE, HOT_COL).wrapping_sub(hot0);
            res.check(delta == tally.updates, || {
                format!(
                    "{who}: hot column grew by {delta}, committed templates hold {} updates",
                    tally.updates
                )
            });
        }
        Kind::Tpcc => {
            let (pay, new) = (
                tally.by_tag[tpcc::TAG_PAYMENT as usize],
                tally.by_tag[tpcc::TAG_NEW_ORDER as usize],
            );
            let w_ytd = db.sum_column(TpccTable::Warehouse.id(), HOT_COL);
            res.check(w_ytd == pay, || {
                format!("{who}: sum W_YTD {w_ytd} != committed Payments {pay}")
            });
            let districts = u64::from(db.config().workers) * tpcc::DISTRICTS_PER_WH;
            let d_hot = db.sum_column(TpccTable::District.id(), HOT_COL);
            let want = tpcc::FIRST_NEW_ORDER_ID * districts + pay + new;
            res.check(d_hot == want, || {
                format!("{who}: sum D_hot {d_hot} != init + Payments + NewOrders {want}")
            });
            let orders = db.index_len(TpccTable::Order.id());
            res.check(orders == new, || {
                format!("{who}: {orders} ORDER rows != committed NewOrders {new}")
            });
        }
    }
}

struct VisitPlan {
    rounds: u32,
    round_len: Duration,
    /// Breakdown on and spans recorded (the traced pass).
    traced: bool,
}

struct VisitOut {
    setup_s: f64,
    /// Committed txn/s of each measured round.
    tps: Vec<f64>,
    /// Median due-to-done latency of each measured round, microseconds.
    p50_us: Vec<f64>,
    /// Every latency of the measured rounds.
    lat: Vec<u32>,
    /// Measured rounds only.
    tally: Tally,
    retries: u64,
    wait_frac: f64,
    tracers: Vec<Tracer>,
}

/// One visit of one scheme: set up, warm (discarded — the first round on
/// fresh memory runs up to 2x slow from first-touch page faults), measure,
/// check, tear down.
fn visit(
    spec: &Spec,
    env: &Env,
    scheme: CcScheme,
    nth: u32,
    plan: &VisitPlan,
    res: &mut RunResult,
) -> VisitOut {
    let wal_dir = spec.durable.then(|| fresh_wal_dir(env, scheme.name()));
    let t = Instant::now();
    let db = build(spec, scheme, env.workers, wal_dir.as_deref(), plan.traced);
    let mut run = runner(&db);
    let mut gens = make_gens(spec, scheme, env.workers, env.seed, nth);
    let setup_s = t.elapsed().as_secs_f64();

    let hot0 = match spec.kind {
        Kind::Ycsb { .. } => db.sum_column(YCSB_TABLE, HOT_COL),
        Kind::Tpcc => 0,
    };
    // TPC-C only: transactions this database may still run (see the cap).
    let mut budget = match spec.kind {
        Kind::Ycsb { .. } => u64::MAX,
        Kind::Tpcc => TPCC_TXNS_PER_WORKER_PER_DB * u64::from(env.workers),
    };
    let mut round = |run: &mut dyn Runner, dur: Duration, traced: bool| {
        let limit = Limit {
            dur,
            max_txns: (budget / u64::from(env.workers)).max(1),
        };
        let r = run.round(&mut gens, limit, traced);
        budget = budget.saturating_sub(r.tally.attempted);
        r
    };

    let warm = round(&mut *run, plan.round_len.mul_f64(0.75), false);
    let mut all = warm.tally;
    let retries0 = run.retries();

    let mut out = VisitOut {
        setup_s,
        tps: Vec::new(),
        p50_us: Vec::new(),
        lat: Vec::new(),
        tally: Tally::default(),
        retries: 0,
        wait_frac: 0.0,
        tracers: Vec::new(),
    };
    for _ in 0..plan.rounds {
        let mut r = round(&mut *run, plan.round_len, plan.traced);
        out.tps.push(r.tally.commits as f64 / r.wall_s);
        out.tally.add(&r.tally);
        out.tracers.append(&mut r.tracers);
        if !plan.traced {
            let mut lat = run.take_latencies();
            lat.sort_unstable();
            out.p50_us.push(stats::quantile_us(&lat, 0.5));
            out.lat.append(&mut lat);
        }
    }
    out.retries = run.retries() - retries0;
    if let Some(p) = db.phase_totals() {
        out.wait_frac = p.fraction(Phase::Wait);
    }

    all.add(&out.tally);
    check_state(
        spec,
        &db,
        hot0,
        &all,
        &format!("{} visit {nth}", scheme.name()),
        res,
    );
    res.attempted += all.attempted;
    res.failed += all.failed;

    drop(run);
    drop(db);
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

/// A fresh database on which every worker ran exactly `txns`
/// transactions (one untimed-out round), log flushed.
pub struct Slice {
    pub db: Arc<Database>,
    pub tally: Tally,
    pub wall_s: f64,
}

pub fn bounded_slice(
    spec: &Spec,
    scheme: CcScheme,
    workers: u32,
    seed: u64,
    wal_dir: Option<&Path>,
    txns: u64,
) -> Slice {
    let db = build(spec, scheme, workers, wal_dir, false);
    let mut gens = make_gens(spec, scheme, workers, seed, u32::MAX - 1);
    let limit = Limit {
        dur: Duration::from_secs(60),
        max_txns: txns,
    };
    let r = runner(&db).round(&mut gens, limit, false);
    Slice {
        db,
        tally: r.tally,
        wall_s: r.wall_s,
    }
}

/// Durability check (`tpcc_durable` only): run a bounded one-warehouse
/// NO_WAIT slice with the log on, shut down cleanly, then load a second
/// database, replay the same log directory into it and demand an
/// identical state digest.
fn recovery_check(spec: &Spec, env: &Env, res: &mut RunResult) {
    let scheme = CcScheme::NoWait;
    let dir = fresh_wal_dir(env, "recovery");
    let s = bounded_slice(spec, scheme, 1, env.seed, Some(&dir), 3_000);
    res.attempted += s.tally.attempted;
    res.failed += s.tally.failed;
    check_state(spec, &s.db, 0, &s.tally, "recovery slice", res);
    let want = s.db.state_digest();
    drop(s);

    let db = build(spec, scheme, 1, Some(&dir), false);
    match db.recover_from_log() {
        Ok(report) => {
            let got = db.state_digest();
            res.check(got == want, || {
                format!("recovered state digest {got:#x} != pre-shutdown digest {want:#x}")
            });
            res.check(report.records_applied > 0, || {
                "recovery replayed no records".into()
            });
            res.info.push(format!(
                "recovery: {} records replayed, digest {}",
                report.records_applied,
                if got == want { "equal" } else { "DIFFERS" }
            ));
        }
        Err(e) => res.check(false, || format!("recover_from_log failed: {e}")),
    }
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// `(visits, rounds per visit)` for a run of `seconds`; short runs (the
/// smoke test) make one visit of one round.
pub fn shape(seconds: f64) -> (u32, u32) {
    if seconds < 6.0 {
        (1, 1)
    } else {
        (3, 4)
    }
}

/// The untraced run: every end-to-end metric but `peak_rss_mb`.
pub fn run(spec: &Spec, env: &Env, res: &mut RunResult) {
    if spec.durable {
        recovery_check(spec, env, res);
    }
    let (visits, rounds) = shape(env.seconds);
    let n = CcScheme::ALL.len();
    let plan = VisitPlan {
        rounds,
        round_len: Duration::from_secs_f64(env.seconds / f64::from(visits * rounds) / n as f64),
        traced: false,
    };
    let mut tps: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut lat: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut ack_p50 = Vec::new();
    for v in 0..visits {
        for (i, &scheme) in CcScheme::ALL.iter().enumerate() {
            let mut o = visit(spec, env, scheme, v, &plan, res);
            tps[i].append(&mut o.tps);
            setup[i].push(o.setup_s);
            lat[i].append(&mut o.lat);
            if scheme == CcScheme::NoWait {
                ack_p50.append(&mut o.p50_us);
            }
        }
    }
    for (scheme, lat) in CcScheme::ALL.iter().zip(&mut lat) {
        lat.sort_unstable();
        res.info.push(stats::latency_line(scheme.name(), lat));
    }
    res.push_per_scheme(tps, &setup);
    res.push_rounds("ack_p50_us", "us", ack_p50);
}

/// Share of a traced run's `--seconds` spent on the workload itself; the
/// layer microbenchmarks are sized by iteration counts, not by time.
pub const TRACED_PASS_SHARE: f64 = 0.5;

/// The traced pass: per scheme one plain and one traced (breakdown on,
/// spans recorded) round on fresh databases. Yields the workload-bound
/// per-layer metrics — `abort_ratio`, `wait_frac`, the tracing overhead —
/// and the spans.
pub fn traced_pass(spec: &Spec, env: &Env, res: &mut RunResult, sink: &mut TraceSink) {
    let n = CcScheme::ALL.len();
    let round_len = Duration::from_secs_f64(env.seconds * TRACED_PASS_SHARE / (2 * n) as f64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for &scheme in &CcScheme::ALL {
        let plan = |traced| VisitPlan {
            rounds: 1,
            round_len,
            traced,
        };
        plain.push(visit(spec, env, scheme, 0, &plan(false), res).tps[0]);
        let t = visit(spec, env, scheme, 0, &plan(true), res);
        traced.push(t.tps[0]);
        res.info.push(format!(
            "{}: {:.0} txn/s plain, {:.0} txn/s traced",
            scheme.name(),
            plain[plain.len() - 1],
            t.tps[0]
        ));
        res.push_contention(scheme, t.retries, t.tally.attempted, t.wait_frac);
        sink.add(scheme.name(), t.tracers);
    }
    res.push(
        "core.obs.trace_overhead_ratio",
        "ratio",
        stats::geomean(&plain) / stats::geomean(&traced),
    );
}
