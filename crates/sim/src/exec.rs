//! The per-core transaction state machines and the simulation world.
//!
//! Each simulated core runs one worker executing its queued transactions
//! (§3.2). A core advances through `Phase`s; every phase charges cycles
//! to one of the seven time phases (the paper's six §3.2 categories plus
//! Logging, split out of Manager) and either schedules its next
//! phase as a future event, parks (blocked on a lock / prewrite /
//! partition / validation latch), or aborts. The scheme logic operates on
//! the plain single-threaded structures in [`crate::db`] — in a
//! discrete-event simulation the event loop *is* the serialization point,
//! so the schemes here are the textbook algorithms with explicit queues,
//! which is precisely what the experiments measure.

use abyss_common::stats::Phase as TimePhase;
use abyss_common::txn::MAX_COUNTER_SLOTS;
use abyss_common::{AbortReason, AccessOp, CcScheme, Key, RunStats, Ts, TxnId, TxnTemplate};

use crate::config::{SimConfig, SimDurability};
use crate::cost::BoundCosts;
use crate::db::{Mode, SimDb, SimOwner, SimPart, SimWaiter, TupleCc};
use crate::kernel::{Cycles, EventKind, EventQueue};
use crate::tsalloc::TsAllocSim;

/// Bits of a simulated txn id reserved for the core (2048 cores max).
pub const CORE_BITS: u32 = 11;

/// Compose a simulated transaction id.
#[inline]
pub fn make_txn_id(core: u32, seq: u64) -> TxnId {
    (seq << CORE_BITS) | u64::from(core)
}

/// The core encoded in a transaction id.
#[inline]
pub fn core_of(txn: TxnId) -> u32 {
    (txn & ((1 << CORE_BITS) - 1)) as u32
}

/// Where a core's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Fetch the next (or retried) transaction, allocate its timestamp.
    Fetch,
    /// Timestamp in hand; branch to partitions or accesses.
    Start,
    /// H-STORE: acquiring partition `txn.part_idx`.
    PartAcquire,
    /// Charge the index probe of access `txn.access_idx`.
    AccessIndex,
    /// Run the scheme's admission logic for the access.
    AccessCc,
    /// Charge the access's useful work (`copy`: a private copy was made).
    AccessWork {
        /// Whether the access copies the tuple (T/O read copies, undo
        /// images, buffered writes).
        copy: bool,
    },
    /// Begin commit (2PL/T/O release bookkeeping; OCC second timestamp).
    CommitStart,
    /// OCC: validation after the second timestamp arrived.
    OccValidate,
    /// Apply the commit's state changes at the right simulated time.
    CommitDone,
    /// Charge rollback work.
    AbortStart,
    /// Apply the abort's state changes; schedule the restart.
    AbortDone,
}

/// A buffered write record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteRec {
    pub table: u32,
    pub key: Key,
    /// The write increments the tuple's hot counter at commit.
    pub counter_bump: bool,
}

/// Per-transaction run state.
#[derive(Debug)]
pub(crate) struct TxnRun {
    pub tmpl: TxnTemplate,
    pub txn_id: TxnId,
    pub ts: Ts,
    pub access_idx: usize,
    pub part_idx: usize,
    /// Resolved (table, key, op) of the access currently in flight.
    pub cur: (u32, Key, AccessOp),
    /// 2PL locks held.
    pub held: Vec<(u32, Key, Mode)>,
    /// Tuples carrying this txn's prewrite (T/O, MVCC).
    pub prewrites: Vec<(u32, Key)>,
    /// Buffered writes (T/O, MVCC, OCC).
    pub wbuf: Vec<WriteRec>,
    /// OCC read set with observed versions.
    pub rset: Vec<(u32, Key, u64)>,
    /// Buffered inserts (T/O, MVCC, OCC).
    pub pending_inserts: Vec<(u32, Key)>,
    /// Eagerly applied inserts (2PL, H-STORE) — destroyed on abort.
    pub applied_inserts: Vec<(u32, Key)>,
    /// In-place counter bumps to revert on abort (2PL, H-STORE).
    pub counter_undo: Vec<(u32, Key)>,
    /// Captured counter values (TPC-C derived keys).
    pub counters: [u64; MAX_COUNTER_SLOTS],
    /// Mapped, sorted, deduplicated H-STORE partitions.
    pub parts: Vec<u32>,
    /// Partitions currently owned.
    pub parts_held: Vec<u32>,
    /// Useful-work cycles accumulated (drives the undo cost).
    pub work_done: Cycles,
    /// Simulated time this attempt entered the pipeline (latency histos).
    pub attempt_start: Cycles,
    /// Why the transaction is aborting.
    pub abort_reason: Option<AbortReason>,
    /// OCC: validation latches currently held.
    pub occ_locked: bool,
    /// This is a restart of the same template.
    pub retry: bool,
}

impl TxnRun {
    fn empty() -> Self {
        Self::new(TxnTemplate::new(Vec::new()), 0)
    }

    fn new(tmpl: TxnTemplate, txn_id: TxnId) -> Self {
        Self {
            tmpl,
            txn_id,
            ts: 0,
            access_idx: 0,
            part_idx: 0,
            cur: (0, 0, AccessOp::Read),
            held: Vec::new(),
            prewrites: Vec::new(),
            wbuf: Vec::new(),
            rset: Vec::new(),
            pending_inserts: Vec::new(),
            applied_inserts: Vec::new(),
            counter_undo: Vec::new(),
            counters: [0; MAX_COUNTER_SLOTS],
            parts: Vec::new(),
            parts_held: Vec::new(),
            work_done: 0,
            attempt_start: 0,
            abort_reason: None,
            occ_locked: false,
            retry: false,
        }
    }

    /// Reset run state for a restart, keeping the template (and, under
    /// WAIT_DIE, the timestamp — `keep_ts`).
    fn reset_for_retry(&mut self, txn_id: TxnId, keep_ts: bool) {
        self.txn_id = txn_id;
        if !keep_ts {
            self.ts = 0;
        }
        self.access_idx = 0;
        self.part_idx = 0;
        self.held.clear();
        self.prewrites.clear();
        self.wbuf.clear();
        self.rset.clear();
        self.pending_inserts.clear();
        self.applied_inserts.clear();
        self.counter_undo.clear();
        self.counters = [0; MAX_COUNTER_SLOTS];
        self.parts_held.clear();
        self.work_done = 0;
        self.abort_reason = None;
        self.occ_locked = false;
        self.retry = true;
    }
}

/// One simulated core.
#[derive(Debug)]
pub(crate) struct CoreSim {
    pub id: u32,
    pub phase: Phase,
    pub txn: TxnRun,
    /// Schedule epoch: stale Step events are ignored.
    pub epoch: u64,
    /// Wait epoch: stale Timeout events are ignored.
    pub wait_epoch: u64,
    pub parked: bool,
    pub blocked_since: Cycles,
    /// What lock wait a pending timeout refers to.
    pub waiting_on: Option<(u32, Key)>,
    pub stats: RunStats,
    seq: u64,
}

impl CoreSim {
    fn new(id: u32) -> Self {
        Self {
            id,
            phase: Phase::Fetch,
            txn: TxnRun::empty(),
            epoch: 0,
            wait_epoch: 0,
            parked: false,
            blocked_since: 0,
            waiting_on: None,
            stats: RunStats::default(),
            seq: 0,
        }
    }
}

/// Outcome of a scheme's admission decision.
enum Out {
    Granted {
        cost: Cycles,
        copy: bool,
    },
    Parked {
        cost: Cycles,
        timeout: bool,
        /// The tuple the core is waiting on (a scan may block on any key
        /// inside its range, not just the access's base key).
        on: (u32, Key),
    },
    Abort {
        cost: Cycles,
        reason: AbortReason,
    },
}

/// The whole simulated world.
pub(crate) struct Sim {
    pub cfg: SimConfig,
    pub costs: BoundCosts,
    pub db: SimDb,
    pub ts: TsAllocSim,
    pub parts: Vec<SimPart>,
    pub cores: Vec<CoreSim>,
    pub q: EventQueue,
    pub gens: Vec<Box<dyn FnMut() -> TxnTemplate>>,
}

impl Sim {
    pub(crate) fn new(
        cfg: SimConfig,
        tables: Vec<crate::db::SimTable>,
        gens: Vec<Box<dyn FnMut() -> TxnTemplate>>,
    ) -> Self {
        assert_eq!(gens.len(), cfg.cores as usize, "one generator per core");
        let costs = BoundCosts::new(cfg.cost.clone(), cfg.cores);
        let db = SimDb::new(cfg.scheme, tables);
        let ts = TsAllocSim::new(cfg.ts_method, &costs, cfg.cores);
        let mut parts = Vec::new();
        parts.resize_with(cfg.hstore_parts as usize, SimPart::default);
        let cores = (0..cfg.cores).map(CoreSim::new).collect();
        Self {
            cfg,
            costs,
            db,
            ts,
            parts,
            cores,
            q: EventQueue::new(),
            gens,
        }
    }

    /// Kick every core off at cycle 0.
    pub(crate) fn start(&mut self) {
        for i in 0..self.cores.len() {
            self.sched(i, 0);
        }
    }

    fn sched(&mut self, ci: usize, at: Cycles) {
        let c = &mut self.cores[ci];
        c.epoch += 1;
        self.q
            .push(at, ci as u32, EventKind::Step { epoch: c.epoch });
    }

    /// Wake a *parked* core at `at` (also invalidates its timeout).
    fn wake(&mut self, cj: u32, at: Cycles) {
        let c = &mut self.cores[cj as usize];
        c.wait_epoch += 1;
        c.waiting_on = None;
        c.epoch += 1;
        // A waiter parks at its admission time plus the manager cost; a
        // release racing inside that window must not resume it earlier.
        let at = at.max(c.blocked_since);
        self.q.push(at, cj, EventKind::Step { epoch: c.epoch });
    }

    fn park(&mut self, ci: usize, now: Cycles, waiting_on: Option<(u32, Key)>, timeout: bool) {
        let c = &mut self.cores[ci];
        c.parked = true;
        c.blocked_since = now;
        c.waiting_on = waiting_on;
        c.wait_epoch += 1;
        if timeout {
            if let Some(t) = self.cfg.dl_timeout {
                let epoch = c.wait_epoch;
                self.q
                    .push(now + t, ci as u32, EventKind::Timeout { wait_epoch: epoch });
            }
        }
    }

    /// Charge `cycles` to a time phase of the seven-phase profile
    /// (`phase_ns` — in the simulator the unit is cycles, only the
    /// fractions are compared against the engine).
    fn charge(&mut self, ci: usize, phase: TimePhase, cycles: Cycles) {
        self.cores[ci].stats.phase_ns.record(phase, cycles);
    }

    /// Handle a Step event.
    pub(crate) fn on_step(&mut self, ci: usize, now: Cycles, epoch: u64) {
        if self.cores[ci].epoch != epoch {
            return; // stale
        }
        if self.cores[ci].parked {
            let waited = now.saturating_sub(self.cores[ci].blocked_since);
            self.charge(ci, TimePhase::Wait, waited);
            self.cores[ci].parked = false;
        }
        self.run_phases(ci, now);
    }

    /// Handle a Timeout event (DL_DETECT lock waits only).
    pub(crate) fn on_timeout(&mut self, ci: usize, now: Cycles, wait_epoch: u64) {
        let c = &self.cores[ci];
        if !c.parked || c.wait_epoch != wait_epoch {
            return; // resolved already
        }
        let me = c.txn.txn_id;
        if let Some((table, key)) = c.waiting_on {
            if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                q.waiters.retain(|w| w.txn != me);
            }
        }
        let waited = now.saturating_sub(self.cores[ci].blocked_since);
        self.charge(ci, TimePhase::Wait, waited);
        let c = &mut self.cores[ci];
        c.parked = false;
        c.waiting_on = None;
        c.wait_epoch += 1;
        c.txn.abort_reason = Some(AbortReason::WaitTimeout);
        c.phase = Phase::AbortStart;
        self.run_phases(ci, now);
    }

    /// Advance the state machine until it schedules, parks, or halts.
    fn run_phases(&mut self, ci: usize, now: Cycles) {
        loop {
            match self.cores[ci].phase {
                Phase::Fetch => {
                    let scheme = self.cfg.scheme;
                    {
                        let retry = self.cores[ci].txn.retry;
                        if !retry {
                            let tmpl = (self.gens[ci])();
                            let c = &mut self.cores[ci];
                            c.seq += 1;
                            let id = make_txn_id(c.id, c.seq);
                            let mut txn = TxnRun::new(tmpl, id);
                            if scheme == CcScheme::HStore {
                                let parts_n = self.cfg.hstore_parts;
                                let mut p: Vec<u32> =
                                    txn.tmpl.partitions.iter().map(|&w| w % parts_n).collect();
                                p.sort_unstable();
                                p.dedup();
                                txn.parts = p;
                            }
                            c.txn = txn;
                        } else {
                            let c = &mut self.cores[ci];
                            c.seq += 1;
                            let id = make_txn_id(c.id, c.seq);
                            let keep_ts = scheme == CcScheme::WaitDie;
                            c.txn.reset_for_retry(id, keep_ts);
                        }
                    }
                    self.cores[ci].txn.attempt_start = now;
                    if scheme.needs_start_ts() && self.cores[ci].txn.ts == 0 {
                        let grant = self.ts.alloc(ci as u32, now);
                        self.cores[ci].stats.ts_allocated += 1;
                        self.charge(ci, TimePhase::TsAlloc, grant.ready_at - now);
                        self.cores[ci].txn.ts = grant.ts;
                        self.cores[ci].phase = Phase::Start;
                        self.sched(ci, grant.ready_at);
                        return;
                    }
                    self.cores[ci].phase = Phase::Start;
                }
                Phase::Start => {
                    self.cores[ci].phase = if self.cfg.scheme == CcScheme::HStore {
                        Phase::PartAcquire
                    } else {
                        Phase::AccessIndex
                    };
                }
                Phase::PartAcquire => {
                    if self.part_acquire(ci, now) {
                        return;
                    }
                }
                Phase::AccessIndex => {
                    let done = {
                        let t = &self.cores[ci].txn;
                        t.access_idx == t.tmpl.accesses.len()
                    };
                    if done {
                        if self.cores[ci].txn.tmpl.user_abort {
                            self.cores[ci].txn.abort_reason = Some(AbortReason::UserAbort);
                            self.cores[ci].phase = Phase::AbortStart;
                            continue;
                        }
                        self.cores[ci].phase = Phase::CommitStart;
                        continue;
                    }
                    let cost = self.costs.index_probe();
                    self.charge(ci, TimePhase::Index, cost);
                    self.cores[ci].phase = Phase::AccessCc;
                    self.sched(ci, now + cost);
                    return;
                }
                Phase::AccessCc => {
                    if self.access_cc(ci, now) {
                        return;
                    }
                }
                Phase::AccessWork { copy } => {
                    let (table, _, op) = self.cores[ci].txn.cur;
                    let row = self.db.row_size(table);
                    let logic = self.cores[ci].txn.tmpl.logic_per_query;
                    let mut cost = match op {
                        AccessOp::Scan { len } => {
                            self.cores[ci].stats.scans += 1;
                            self.costs.scan_work(len as usize, row, copy, logic)
                        }
                        _ => self.costs.access_work(row, copy, logic),
                    };
                    if matches!(op, AccessOp::Insert) {
                        // Index publication of the new key.
                        cost += self.costs.index_probe();
                    }
                    self.charge(ci, TimePhase::UsefulWork, cost);
                    let t = &mut self.cores[ci].txn;
                    t.work_done += cost;
                    t.access_idx += 1;
                    self.cores[ci].phase = Phase::AccessIndex;
                    self.sched(ci, now + cost);
                    return;
                }
                Phase::CommitStart => {
                    if self.commit_start(ci, now) {
                        return;
                    }
                }
                Phase::OccValidate => {
                    if self.occ_validate(ci, now) {
                        return;
                    }
                }
                Phase::CommitDone => {
                    self.commit_done(ci, now);
                    let len = self.cores[ci].txn.tmpl.len() as u64;
                    let tag = self.cores[ci].txn.tmpl.tag;
                    let c = &mut self.cores[ci];
                    c.stats.record_commit(tag);
                    c.stats
                        .commit_latency
                        .record(now.saturating_sub(c.txn.attempt_start));
                    c.stats.tuples_committed += len;
                    c.txn.retry = false;
                    c.txn.ts = 0;
                    c.phase = Phase::Fetch;
                }
                Phase::AbortStart => {
                    let undo = self.costs.undo_cost(self.cores[ci].txn.work_done);
                    self.charge(ci, TimePhase::Abort, undo);
                    self.cores[ci].phase = Phase::AbortDone;
                    if undo == 0 {
                        continue;
                    }
                    self.sched(ci, now + undo);
                    return;
                }
                Phase::AbortDone => {
                    self.abort_done(ci, now);
                    let reason = self.cores[ci]
                        .txn
                        .abort_reason
                        .expect("abort without a reason");
                    self.cores[ci].stats.record_abort(reason);
                    let start = self.cores[ci].txn.attempt_start;
                    self.cores[ci]
                        .stats
                        .abort_latency
                        .record(now.saturating_sub(start));
                    self.cores[ci].phase = Phase::Fetch;
                    if reason == AbortReason::UserAbort {
                        self.cores[ci].txn.retry = false;
                        self.cores[ci].txn.ts = 0;
                        continue;
                    }
                    let penalty = self.costs.model.abort_penalty;
                    self.charge(ci, TimePhase::Abort, penalty);
                    self.sched(ci, now + penalty);
                    return;
                }
            }
        }
    }

    /// H-STORE partition acquisition; returns true if the caller should
    /// stop (event scheduled or parked).
    fn part_acquire(&mut self, ci: usize, now: Cycles) -> bool {
        let (idx, total) = {
            let t = &self.cores[ci].txn;
            (t.part_idx, t.parts.len())
        };
        if idx >= total {
            self.cores[ci].phase = Phase::AccessIndex;
            return false;
        }
        let p = self.cores[ci].txn.parts[idx];
        let (txn_id, ts) = {
            let t = &self.cores[ci].txn;
            (t.txn_id, t.ts)
        };
        let cost = self.costs.manager_op();
        let slot = &mut self.parts[p as usize];
        match slot.busy {
            None => {
                slot.busy = Some(txn_id);
                let t = &mut self.cores[ci].txn;
                t.parts_held.push(p);
                t.part_idx += 1;
                self.charge(ci, TimePhase::Manager, cost);
                self.sched(ci, now + cost);
                true
            }
            Some(owner) if owner == txn_id => {
                // A releaser handed us the partition and woke us.
                let t = &mut self.cores[ci].txn;
                t.parts_held.push(p);
                t.part_idx += 1;
                false
            }
            Some(_) => {
                slot.enqueue(ts, txn_id, ci as u32);
                self.charge(ci, TimePhase::Manager, cost);
                self.park(ci, now + cost, None, false);
                true
            }
        }
    }

    /// Scheme admission for the current access; returns true if the caller
    /// should stop.
    fn access_cc(&mut self, ci: usize, now: Cycles) -> bool {
        // Resolve the access.
        let (table, key, op) = {
            let t = &self.cores[ci].txn;
            let a = t.tmpl.accesses[t.access_idx];
            (a.table, a.key.resolve(&t.counters), a.op)
        };
        self.cores[ci].txn.cur = (table, key, op);

        let out = match self.cfg.scheme {
            CcScheme::NoWait | CcScheme::DlDetect | CcScheme::WaitDie => {
                self.cc_2pl(ci, now, table, key, op)
            }
            CcScheme::Timestamp => self.cc_timestamp(ci, table, key, op),
            CcScheme::Mvcc => self.cc_mvcc(ci, table, key, op),
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => self.cc_occ(ci, table, key, op),
            CcScheme::HStore => self.cc_hstore(ci, table, key, op),
        };
        match out {
            Out::Granted { cost, copy } => {
                self.charge(ci, TimePhase::Manager, cost);
                self.cores[ci].phase = Phase::AccessWork { copy };
                self.sched(ci, now + cost);
                true
            }
            Out::Parked { cost, timeout, on } => {
                self.charge(ci, TimePhase::Manager, cost);
                // Phase stays AccessCc: woken waiters re-run admission.
                self.park(ci, now + cost, Some(on), timeout);
                true
            }
            Out::Abort { cost, reason } => {
                self.charge(ci, TimePhase::Manager, cost);
                self.cores[ci].txn.abort_reason = Some(reason);
                self.cores[ci].phase = Phase::AbortStart;
                self.sched(ci, now + cost);
                true
            }
        }
    }

    fn cc_2pl(&mut self, ci: usize, now: Cycles, table: u32, key: Key, op: AccessOp) -> Out {
        let scheme = self.cfg.scheme;
        let cost = self.costs.manager_op();
        let (me, my_ts) = {
            let t = &self.cores[ci].txn;
            (t.txn_id, t.ts)
        };
        if let AccessOp::Scan { len } = op {
            return self.cc_2pl_scan(ci, now, table, key, len);
        }
        if matches!(op, AccessOp::Insert) {
            if self.db.exists(table, key) {
                return Out::Abort {
                    cost,
                    reason: AbortReason::LockConflict,
                };
            }
            self.db.create(table, key, my_ts);
            if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                q.owners.push(SimOwner {
                    txn: me,
                    mode: Mode::X,
                    ts: my_ts,
                });
            }
            let t = &mut self.cores[ci].txn;
            t.held.push((table, key, Mode::X));
            t.applied_inserts.push((table, key));
            return Out::Granted { cost, copy: true };
        }
        let mode = if op.is_write() { Mode::X } else { Mode::S };
        let counter = self.db.tuple(table, key).counter;
        let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc else {
            unreachable!("2PL tuple state")
        };
        if q.owns(me, mode) {
            self.apply_inplace_effects(ci, table, key, op, counter);
            return Out::Granted { cost, copy: false };
        }
        // Upgrade (S held, X wanted): grant only as sole owner.
        let upgrading = q.owns(me, Mode::S) && mode == Mode::X;
        if upgrading {
            if q.owners.iter().all(|o| o.txn == me) {
                for o in q.owners.iter_mut() {
                    o.mode = Mode::X;
                }
                for h in self.cores[ci].txn.held.iter_mut() {
                    if h.0 == table && h.1 == key {
                        h.2 = Mode::X;
                    }
                }
                self.apply_inplace_effects(ci, table, key, op, counter);
                return Out::Granted { cost, copy: true };
            }
            return Out::Abort {
                cost,
                reason: AbortReason::LockConflict,
            };
        }
        let compatible = q.compatible(mode, me);
        let fifo_clear = scheme != CcScheme::DlDetect || q.waiters.is_empty();
        if compatible && fifo_clear {
            q.owners.push(SimOwner {
                txn: me,
                mode,
                ts: my_ts,
            });
            self.cores[ci].txn.held.push((table, key, mode));
            self.apply_inplace_effects(ci, table, key, op, counter);
            return Out::Granted {
                cost,
                copy: op.is_write(),
            };
        }
        match scheme {
            CcScheme::NoWait => Out::Abort {
                cost,
                reason: AbortReason::LockConflict,
            },
            CcScheme::WaitDie => {
                let youngest = q
                    .owners
                    .iter()
                    .filter(|o| o.txn != me && !o.mode.compatible(mode))
                    .map(|o| o.ts)
                    .min()
                    .expect("conflicting owner exists");
                if my_ts >= youngest {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::WaitDieKilled,
                    };
                }
                let w = SimWaiter {
                    txn: me,
                    core: ci as u32,
                    mode,
                    ts: my_ts,
                };
                let pos = q
                    .waiters
                    .iter()
                    .position(|x| x.ts > my_ts)
                    .unwrap_or(q.waiters.len());
                q.waiters.insert(pos, w);
                Out::Parked {
                    cost,
                    timeout: false,
                    on: (table, key),
                }
            }
            CcScheme::DlDetect => {
                q.waiters.push_back(SimWaiter {
                    txn: me,
                    core: ci as u32,
                    mode,
                    ts: my_ts,
                });
                if self.cfg.dl_detect {
                    if let Some(victim) = self.find_deadlock_victim(me, table, key) {
                        if victim == me {
                            if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                                q.waiters.retain(|w| w.txn != me);
                            }
                            return Out::Abort {
                                cost,
                                reason: AbortReason::Deadlock,
                            };
                        }
                        self.abort_parked_victim(victim, now);
                    }
                }
                Out::Parked {
                    cost,
                    timeout: true,
                    on: (table, key),
                }
            }
            _ => unreachable!(),
        }
    }

    /// 2PL range scan: S-lock every *materialized* key in `[low, low+len)`.
    /// The lazy tuple map stands in for the index — only keys some
    /// transaction has touched carry lock state, which is exactly where
    /// scan-vs-write conflicts arise. Parking resumes the whole scan;
    /// already-held locks are skipped on the re-run.
    fn cc_2pl_scan(&mut self, ci: usize, now: Cycles, table: u32, low: Key, len: u32) -> Out {
        let scheme = self.cfg.scheme;
        let cost = self.costs.manager_op();
        let (me, my_ts) = {
            let t = &self.cores[ci].txn;
            (t.txn_id, t.ts)
        };
        let high = low.saturating_add(u64::from(len));
        for key in low..high {
            if !self.db.exists(table, key) {
                continue;
            }
            let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc else {
                unreachable!("2PL tuple state")
            };
            if q.owns(me, Mode::S) {
                continue;
            }
            let compatible = q.compatible(Mode::S, me);
            let fifo_clear = scheme != CcScheme::DlDetect || q.waiters.is_empty();
            if compatible && fifo_clear {
                q.owners.push(SimOwner {
                    txn: me,
                    mode: Mode::S,
                    ts: my_ts,
                });
                self.cores[ci].txn.held.push((table, key, Mode::S));
                continue;
            }
            return match scheme {
                CcScheme::NoWait => Out::Abort {
                    cost,
                    reason: AbortReason::LockConflict,
                },
                CcScheme::WaitDie => {
                    let youngest = q
                        .owners
                        .iter()
                        .filter(|o| o.txn != me && !o.mode.compatible(Mode::S))
                        .map(|o| o.ts)
                        .min()
                        .expect("conflicting owner exists");
                    if my_ts >= youngest {
                        Out::Abort {
                            cost,
                            reason: AbortReason::WaitDieKilled,
                        }
                    } else {
                        let w = SimWaiter {
                            txn: me,
                            core: ci as u32,
                            mode: Mode::S,
                            ts: my_ts,
                        };
                        let pos = q
                            .waiters
                            .iter()
                            .position(|x| x.ts > my_ts)
                            .unwrap_or(q.waiters.len());
                        q.waiters.insert(pos, w);
                        Out::Parked {
                            cost,
                            timeout: false,
                            on: (table, key),
                        }
                    }
                }
                CcScheme::DlDetect => {
                    q.waiters.push_back(SimWaiter {
                        txn: me,
                        core: ci as u32,
                        mode: Mode::S,
                        ts: my_ts,
                    });
                    if self.cfg.dl_detect {
                        if let Some(victim) = self.find_deadlock_victim(me, table, key) {
                            if victim == me {
                                if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                                    q.waiters.retain(|w| w.txn != me);
                                }
                                return Out::Abort {
                                    cost,
                                    reason: AbortReason::Deadlock,
                                };
                            }
                            self.abort_parked_victim(victim, now);
                        }
                    }
                    Out::Parked {
                        cost,
                        timeout: true,
                        on: (table, key),
                    }
                }
                _ => unreachable!(),
            };
        }
        Out::Granted { cost, copy: false }
    }

    /// Apply in-place effects (2PL/H-STORE) once a write is admitted:
    /// counter capture+bump for `UpdateCounter`.
    fn apply_inplace_effects(
        &mut self,
        ci: usize,
        table: u32,
        key: Key,
        op: AccessOp,
        counter: u64,
    ) {
        if let AccessOp::UpdateCounter { slot } = op {
            let t = &mut self.cores[ci].txn;
            if !t.counter_undo.contains(&(table, key)) {
                t.counters[slot as usize] = counter;
                t.counter_undo.push((table, key));
                self.db.tuple(table, key).counter = counter + 1;
            }
        }
    }

    fn cc_timestamp(&mut self, ci: usize, table: u32, key: Key, op: AccessOp) -> Out {
        let cost = self.costs.manager_op();
        let (me, ts) = {
            let t = &self.cores[ci].txn;
            (t.txn_id, t.ts)
        };
        if let AccessOp::Scan { len } = op {
            // Scan every materialized key under the read rules; wts ahead
            // of the scan's timestamp aborts it (read-too-late).
            let high = key.saturating_add(u64::from(len));
            for k in key..high {
                if !self.db.exists(table, k) {
                    continue;
                }
                let TupleCc::Ts(s) = &mut self.db.tuple(table, k).cc else {
                    unreachable!("T/O tuple state")
                };
                if ts < s.wts {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::TsOrderViolation,
                    };
                }
                if s.pending_below(ts, me) {
                    s.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, k),
                    };
                }
                s.rts = s.rts.max(ts);
            }
            return Out::Granted { cost, copy: true };
        }
        if matches!(op, AccessOp::Insert) {
            self.cores[ci].txn.pending_inserts.push((table, key));
            return Out::Granted { cost, copy: true };
        }
        // Read-own-write is served from the workspace.
        if self.cores[ci]
            .txn
            .wbuf
            .iter()
            .any(|w| w.table == table && w.key == key)
        {
            return Out::Granted { cost, copy: false };
        }
        let counter = self.db.tuple(table, key).counter;
        let TupleCc::Ts(s) = &mut self.db.tuple(table, key).cc else {
            unreachable!("T/O tuple state")
        };
        match op {
            AccessOp::Read => {
                if ts < s.wts {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::TsOrderViolation,
                    };
                }
                if s.pending_below(ts, me) {
                    s.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, key),
                    };
                }
                s.rts = s.rts.max(ts);
                Out::Granted { cost, copy: true }
            }
            AccessOp::Update | AccessOp::UpdateCounter { .. } => {
                if ts < s.wts || ts < s.rts {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::TsOrderViolation,
                    };
                }
                if s.pending_below(ts, me) {
                    s.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, key),
                    };
                }
                s.rts = s.rts.max(ts);
                s.prewrites.push((ts, me));
                let bump = matches!(op, AccessOp::UpdateCounter { .. });
                let t = &mut self.cores[ci].txn;
                if let AccessOp::UpdateCounter { slot } = op {
                    t.counters[slot as usize] = counter;
                }
                t.prewrites.push((table, key));
                t.wbuf.push(WriteRec {
                    table,
                    key,
                    counter_bump: bump,
                });
                Out::Granted { cost, copy: true }
            }
            AccessOp::Insert | AccessOp::Scan { .. } => unreachable!(),
        }
    }

    fn cc_mvcc(&mut self, ci: usize, table: u32, key: Key, op: AccessOp) -> Out {
        let cost = self.costs.manager_op();
        let (me, ts) = {
            let t = &self.cores[ci].txn;
            (t.txn_id, t.ts)
        };
        if let AccessOp::Scan { len } = op {
            // Snapshot-bounded scan: versions invisible at `ts` are
            // skipped; a pending earlier write parks the scanner.
            let high = key.saturating_add(u64::from(len));
            for k in key..high {
                if !self.db.exists(table, k) {
                    continue;
                }
                let TupleCc::Mvcc(m) = &mut self.db.tuple(table, k).cc else {
                    unreachable!("MVCC tuple state")
                };
                let Some(vi) = m.visible(ts) else {
                    continue;
                };
                let (vwts, vrts) = m.versions[vi];
                if m.pending_between(vwts, ts, me) {
                    m.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, k),
                    };
                }
                m.versions[vi].1 = vrts.max(ts);
            }
            return Out::Granted { cost, copy: true };
        }
        if matches!(op, AccessOp::Insert) {
            self.cores[ci].txn.pending_inserts.push((table, key));
            return Out::Granted { cost, copy: true };
        }
        if self.cores[ci]
            .txn
            .wbuf
            .iter()
            .any(|w| w.table == table && w.key == key)
        {
            return Out::Granted { cost, copy: false };
        }
        let counter = self.db.tuple(table, key).counter;
        let TupleCc::Mvcc(m) = &mut self.db.tuple(table, key).cc else {
            unreachable!("MVCC tuple state")
        };
        let Some(vi) = m.visible(ts) else {
            return Out::Abort {
                cost,
                reason: AbortReason::TsOrderViolation,
            };
        };
        let (vwts, vrts) = m.versions[vi];
        match op {
            AccessOp::Read => {
                if m.pending_between(vwts, ts, me) {
                    m.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, key),
                    };
                }
                m.versions[vi].1 = vrts.max(ts);
                Out::Granted { cost, copy: true }
            }
            AccessOp::Update | AccessOp::UpdateCounter { .. } => {
                if vi != m.versions.len() - 1 || vrts > ts {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::MvccWriteConflict,
                    };
                }
                if m.pending_between(vwts, ts, me) {
                    m.waiters.push(ci as u32);
                    return Out::Parked {
                        cost,
                        timeout: false,
                        on: (table, key),
                    };
                }
                if m.prewrites.iter().any(|&(p, t2)| p > ts && t2 != me) {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::MvccWriteConflict,
                    };
                }
                m.versions[vi].1 = vrts.max(ts);
                m.prewrites.push((ts, me));
                let bump = matches!(op, AccessOp::UpdateCounter { .. });
                let t = &mut self.cores[ci].txn;
                if let AccessOp::UpdateCounter { slot } = op {
                    t.counters[slot as usize] = counter;
                }
                t.prewrites.push((table, key));
                t.wbuf.push(WriteRec {
                    table,
                    key,
                    counter_bump: bump,
                });
                Out::Granted { cost, copy: true }
            }
            AccessOp::Insert | AccessOp::Scan { .. } => unreachable!(),
        }
    }

    fn cc_occ(&mut self, ci: usize, table: u32, key: Key, op: AccessOp) -> Out {
        let cost = self.costs.manager_op();
        let me = self.cores[ci].txn.txn_id;
        if let AccessOp::Scan { len } = op {
            // Optimistic scan: record every materialized key's version in
            // the read set (the engine's node-set validation collapses to
            // per-key validation here — the simulated tree has no leaves).
            let high = key.saturating_add(u64::from(len));
            for k in key..high {
                if !self.db.exists(table, k) {
                    continue;
                }
                let version = {
                    let TupleCc::Occ(o) = &mut self.db.tuple(table, k).cc else {
                        unreachable!("OCC tuple state")
                    };
                    if o.locked_by.is_some_and(|t| t != me) {
                        o.waiters.push(ci as u32);
                        return Out::Parked {
                            cost,
                            timeout: false,
                            on: (table, k),
                        };
                    }
                    o.version
                };
                let t = &mut self.cores[ci].txn;
                if !t.rset.iter().any(|&(tb, kk, _)| tb == table && kk == k) {
                    t.rset.push((table, k, version));
                }
            }
            return Out::Granted { cost, copy: true };
        }
        if matches!(op, AccessOp::Insert) {
            self.cores[ci].txn.pending_inserts.push((table, key));
            return Out::Granted { cost, copy: true };
        }
        if self.cores[ci]
            .txn
            .wbuf
            .iter()
            .any(|w| w.table == table && w.key == key)
        {
            return Out::Granted { cost, copy: false };
        }
        let counter = self.db.tuple(table, key).counter;
        let TupleCc::Occ(o) = &mut self.db.tuple(table, key).cc else {
            unreachable!("OCC tuple state")
        };
        if o.locked_by.is_some_and(|t| t != me) {
            // A committer is installing: the seqlock read spins.
            o.waiters.push(ci as u32);
            return Out::Parked {
                cost,
                timeout: false,
                on: (table, key),
            };
        }
        let version = o.version;
        let t = &mut self.cores[ci].txn;
        t.rset.push((table, key, version));
        if op.is_write() {
            let bump = matches!(op, AccessOp::UpdateCounter { .. });
            if let AccessOp::UpdateCounter { slot } = op {
                t.counters[slot as usize] = counter;
            }
            t.wbuf.push(WriteRec {
                table,
                key,
                counter_bump: bump,
            });
        }
        Out::Granted { cost, copy: true }
    }

    fn cc_hstore(&mut self, ci: usize, table: u32, key: Key, op: AccessOp) -> Out {
        // No per-tuple concurrency control: a handful of cycles.
        let cost = self.costs.model.manager_base / 4 + 1;
        let ts = self.cores[ci].txn.ts;
        match op {
            AccessOp::Insert => {
                if self.db.exists(table, key) {
                    return Out::Abort {
                        cost,
                        reason: AbortReason::LockConflict,
                    };
                }
                self.db.create(table, key, ts);
                self.cores[ci].txn.applied_inserts.push((table, key));
                Out::Granted { cost, copy: false }
            }
            AccessOp::UpdateCounter { .. } => {
                let counter = self.db.tuple(table, key).counter;
                self.apply_inplace_effects(ci, table, key, op, counter);
                Out::Granted { cost, copy: true }
            }
            AccessOp::Update => Out::Granted { cost, copy: true },
            AccessOp::Read | AccessOp::Scan { .. } => Out::Granted { cost, copy: false },
        }
    }

    /// Durability cost of the transaction committing on `ci`: the redo
    /// record's worker-local buffer append, plus the per-commit force
    /// under [`SimDurability::PerCommitFsync`]. Read-only commits log
    /// nothing. This is the cost the `fig_durability` sweeps expose: the
    /// append is flat and tiny (group commit tracks the logging-off
    /// ceiling) while the per-commit fsync dwarfs the transaction itself.
    fn durability_cost(&mut self, ci: usize) -> u64 {
        if self.cfg.durability == SimDurability::Off {
            return 0;
        }
        let bytes: usize = {
            // The template is the scheme-independent source of the write
            // set (2PL/H-STORE write in place, the buffered schemes via
            // wbuf/pending_inserts — all of it originates here).
            let t = &self.cores[ci].txn;
            let per_op = 25usize; // op header
            let body: usize = t
                .tmpl
                .accesses
                .iter()
                .filter(|a| a.op.is_write())
                .map(|a| self.db.row_size(a.table) + per_op)
                .sum();
            if body == 0 {
                return 0; // read-only commits log nothing
            }
            body + 28 // record frame + header
        };
        let mut cost = self.costs.log_append(bytes);
        if self.cfg.durability == SimDurability::PerCommitFsync {
            cost += self.costs.log_fsync();
        }
        let c = &mut self.cores[ci];
        c.stats.log_records += 1;
        c.stats.log_bytes += bytes as u64;
        cost
    }

    /// Commit bookkeeping phase; returns true if the caller should stop.
    fn commit_start(&mut self, ci: usize, now: Cycles) -> bool {
        match self.cfg.scheme {
            CcScheme::NoWait | CcScheme::DlDetect | CcScheme::WaitDie => {
                let release = self.costs.release_cost(self.cores[ci].txn.held.len());
                let dur = self.durability_cost(ci);
                self.charge(ci, TimePhase::Manager, release);
                self.charge(ci, TimePhase::Logging, dur);
                self.cores[ci].phase = Phase::CommitDone;
                self.sched(ci, now + release + dur);
                true
            }
            CcScheme::HStore => {
                let release = self.costs.release_cost(self.cores[ci].txn.parts_held.len());
                let dur = self.durability_cost(ci);
                self.charge(ci, TimePhase::Manager, release);
                self.charge(ci, TimePhase::Logging, dur);
                self.cores[ci].phase = Phase::CommitDone;
                self.sched(ci, now + release + dur);
                true
            }
            CcScheme::Timestamp | CcScheme::Mvcc => {
                let (nw, ni, rows): (usize, usize, u64) = {
                    let t = &self.cores[ci].txn;
                    let rows = t
                        .wbuf
                        .iter()
                        .map(|w| self.costs.copy_cost(self.db.row_size(w.table)))
                        .sum();
                    (t.prewrites.len(), t.pending_inserts.len(), rows)
                };
                let cost =
                    self.costs.release_cost(nw) + rows + ni as u64 * self.costs.index_probe();
                let dur = self.durability_cost(ci);
                self.charge(ci, TimePhase::Manager, cost);
                self.charge(ci, TimePhase::Logging, dur);
                self.cores[ci].phase = Phase::CommitDone;
                self.sched(ci, now + cost + dur);
                true
            }
            CcScheme::Occ => {
                // The second timestamp (validation), then validate.
                let grant = self.ts.alloc(ci as u32, now);
                self.cores[ci].stats.ts_allocated += 1;
                self.charge(ci, TimePhase::TsAlloc, grant.ready_at - now);
                self.cores[ci].phase = Phase::OccValidate;
                self.sched(ci, grant.ready_at);
                true
            }
            CcScheme::Silo => {
                // No allocator trip at all: the serialization point is one
                // read of the read-mostly global epoch line, then the same
                // distributed validation OCC performs.
                let cost = self.costs.epoch_read();
                self.charge(ci, TimePhase::Manager, cost);
                self.cores[ci].phase = Phase::OccValidate;
                self.sched(ci, now + cost);
                true
            }
            CcScheme::TicToc => {
                // Neither an allocator trip nor an epoch read: the commit
                // timestamp is computed from tuple words the lock/validate
                // steps pull into cache anyway. The scheme's scalability
                // tax — rts-extension CAS traffic — is charged inside the
                // validation phase, per extended read.
                self.cores[ci].phase = Phase::OccValidate;
                false
            }
        }
    }

    /// OCC validation; returns true if the caller should stop.
    fn occ_validate(&mut self, ci: usize, now: Cycles) -> bool {
        let me = self.cores[ci].txn.txn_id;
        let wbuf: Vec<WriteRec> = self.cores[ci].txn.wbuf.clone();
        // Foreign validation latch on any write target ⇒ wait (Silo spins).
        let mut blocked = None;
        for w in &wbuf {
            let TupleCc::Occ(o) = self.db_tuple_ref(w.table, w.key) else {
                unreachable!()
            };
            if o.locked_by.is_some_and(|l| l != me) {
                blocked = Some((w.table, w.key));
                break;
            }
        }
        if let Some((table, key)) = blocked {
            if let TupleCc::Occ(o) = &mut self.db.tuple(table, key).cc {
                o.waiters.push(ci as u32);
            }
            self.park(ci, now, Some((table, key)), false);
            return true;
        }
        // Latch the write set.
        for w in &wbuf {
            if let TupleCc::Occ(o) = &mut self.db.tuple(w.table, w.key).cc {
                o.locked_by = Some(me);
            }
        }
        self.cores[ci].txn.occ_locked = true;
        // Validate the read set.
        let rset: Vec<(u32, Key, u64)> = self.cores[ci].txn.rset.clone();
        let mut ok = true;
        for (table, key, ver) in &rset {
            let TupleCc::Occ(o) = self.db_tuple_ref(*table, *key) else {
                unreachable!()
            };
            if o.version != *ver || o.locked_by.is_some_and(|l| l != me) {
                ok = false;
                break;
            }
        }
        let validate = self.costs.validate_cost(rset.len(), wbuf.len());
        if ok {
            let durability = self.durability_cost(ci);
            let install: u64 = wbuf
                .iter()
                .map(|w| self.costs.copy_cost(self.db.row_size(w.table)))
                .sum();
            let inserts =
                self.cores[ci].txn.pending_inserts.len() as u64 * self.costs.index_probe();
            let mut cost = validate + install + inserts;
            if self.cfg.scheme == CcScheme::TicToc && !wbuf.is_empty() {
                // TICTOC: the writes drive the computed commit timestamp
                // past the read set's rts windows, so each pure read is
                // revalidated by an rts-extension CAS on its tuple word —
                // distributed coherence traffic in place of allocator
                // trips (read-only transactions need none).
                let ext = rset
                    .iter()
                    .filter(|(t, k, _)| !wbuf.iter().any(|w| w.table == *t && w.key == *k))
                    .count() as u64;
                cost += ext * self.costs.rts_extension();
                self.cores[ci].stats.rts_extensions += ext;
            }
            self.charge(ci, TimePhase::Manager, cost);
            self.charge(ci, TimePhase::Logging, durability);
            self.cores[ci].phase = Phase::CommitDone;
            self.sched(ci, now + cost + durability);
        } else {
            self.charge(ci, TimePhase::Manager, validate);
            self.cores[ci].txn.abort_reason = Some(AbortReason::ValidationFail);
            self.cores[ci].phase = Phase::AbortStart;
            self.sched(ci, now + validate);
        }
        true
    }

    fn db_tuple_ref(&mut self, table: u32, key: Key) -> &TupleCc {
        &self.db.tuple(table, key).cc
    }

    /// Apply commit effects at the commit's completion time.
    fn commit_done(&mut self, ci: usize, now: Cycles) {
        let wake_at = now + self.costs.wake_latency();
        let mut wakes: Vec<u32> = Vec::new();
        match self.cfg.scheme {
            CcScheme::NoWait | CcScheme::DlDetect | CcScheme::WaitDie => {
                let held = std::mem::take(&mut self.cores[ci].txn.held);
                let me = self.cores[ci].txn.txn_id;
                for (table, key, _) in held {
                    if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                        q.remove(me);
                        wakes.extend(q.grant_ready());
                    }
                }
            }
            CcScheme::Timestamp => {
                let ts = self.cores[ci].txn.ts;
                let me = self.cores[ci].txn.txn_id;
                let wbuf = std::mem::take(&mut self.cores[ci].txn.wbuf);
                for w in wbuf {
                    let tuple = self.db.tuple(w.table, w.key);
                    if w.counter_bump {
                        tuple.counter += 1;
                    }
                    if let TupleCc::Ts(s) = &mut tuple.cc {
                        s.wts = s.wts.max(ts);
                        s.prewrites.retain(|&(_, t)| t != me);
                        wakes.append(&mut s.waiters);
                    }
                }
                let inserts = std::mem::take(&mut self.cores[ci].txn.pending_inserts);
                for (table, key) in inserts {
                    if !self.db.exists(table, key) {
                        self.db.create(table, key, ts);
                    }
                }
            }
            CcScheme::Mvcc => {
                let ts = self.cores[ci].txn.ts;
                let me = self.cores[ci].txn.txn_id;
                let max_v = self.cfg.mvcc_max_versions;
                let wbuf = std::mem::take(&mut self.cores[ci].txn.wbuf);
                for w in wbuf {
                    let tuple = self.db.tuple(w.table, w.key);
                    if w.counter_bump {
                        tuple.counter += 1;
                    }
                    if let TupleCc::Mvcc(m) = &mut tuple.cc {
                        m.prewrites.retain(|&(_, t)| t != me);
                        debug_assert!(m.versions.back().map(|&(w, _)| w < ts).unwrap_or(true));
                        m.versions.push_back((ts, ts));
                        while m.versions.len() > max_v {
                            m.versions.pop_front();
                        }
                        wakes.append(&mut m.waiters);
                    }
                }
                let inserts = std::mem::take(&mut self.cores[ci].txn.pending_inserts);
                for (table, key) in inserts {
                    if !self.db.exists(table, key) {
                        self.db.create(table, key, ts);
                    }
                }
            }
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => {
                let ts = self.cores[ci].txn.ts;
                let wbuf = std::mem::take(&mut self.cores[ci].txn.wbuf);
                for w in wbuf {
                    let tuple = self.db.tuple(w.table, w.key);
                    if w.counter_bump {
                        tuple.counter += 1;
                    }
                    if let TupleCc::Occ(o) = &mut tuple.cc {
                        o.version += 1;
                        o.locked_by = None;
                        wakes.append(&mut o.waiters);
                    }
                }
                self.cores[ci].txn.occ_locked = false;
                let inserts = std::mem::take(&mut self.cores[ci].txn.pending_inserts);
                for (table, key) in inserts {
                    if !self.db.exists(table, key) {
                        self.db.create(table, key, ts);
                    }
                }
            }
            CcScheme::HStore => {
                let parts = std::mem::take(&mut self.cores[ci].txn.parts_held);
                let me = self.cores[ci].txn.txn_id;
                for p in parts {
                    if let Some(core) = self.parts[p as usize].release(me) {
                        wakes.push(core);
                    }
                }
            }
        }
        for cj in wakes {
            self.wake(cj, wake_at);
        }
    }

    /// Apply abort effects at the rollback's completion time.
    fn abort_done(&mut self, ci: usize, now: Cycles) {
        let wake_at = now + self.costs.wake_latency();
        let mut wakes: Vec<u32> = Vec::new();
        let me = self.cores[ci].txn.txn_id;
        // Revert in-place counter bumps.
        let undo = std::mem::take(&mut self.cores[ci].txn.counter_undo);
        for (table, key) in undo {
            self.db.tuple(table, key).counter -= 1;
        }
        match self.cfg.scheme {
            CcScheme::NoWait | CcScheme::DlDetect | CcScheme::WaitDie => {
                let held = std::mem::take(&mut self.cores[ci].txn.held);
                for (table, key, _) in held {
                    if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                        q.remove(me);
                        wakes.extend(q.grant_ready());
                    }
                }
            }
            CcScheme::Timestamp => {
                let pre = std::mem::take(&mut self.cores[ci].txn.prewrites);
                for (table, key) in pre {
                    if let TupleCc::Ts(s) = &mut self.db.tuple(table, key).cc {
                        s.prewrites.retain(|&(_, t)| t != me);
                        wakes.append(&mut s.waiters);
                    }
                }
            }
            CcScheme::Mvcc => {
                let pre = std::mem::take(&mut self.cores[ci].txn.prewrites);
                for (table, key) in pre {
                    if let TupleCc::Mvcc(m) = &mut self.db.tuple(table, key).cc {
                        m.prewrites.retain(|&(_, t)| t != me);
                        wakes.append(&mut m.waiters);
                    }
                }
            }
            CcScheme::Occ | CcScheme::Silo | CcScheme::TicToc => {
                if self.cores[ci].txn.occ_locked {
                    let wbuf = self.cores[ci].txn.wbuf.clone();
                    for w in wbuf {
                        if let TupleCc::Occ(o) = &mut self.db.tuple(w.table, w.key).cc {
                            if o.locked_by == Some(me) {
                                o.locked_by = None;
                                wakes.append(&mut o.waiters);
                            }
                        }
                    }
                    self.cores[ci].txn.occ_locked = false;
                }
            }
            CcScheme::HStore => {}
        }
        // Destroy eagerly-applied inserts (waking anyone queued on them).
        let applied = std::mem::take(&mut self.cores[ci].txn.applied_inserts);
        for (table, key) in applied {
            if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
                q.remove(me);
                for w in q.waiters.iter() {
                    wakes.push(w.core);
                }
            }
            self.db.destroy(table, key);
        }
        // H-STORE partitions released last (covers eager inserts above).
        if self.cfg.scheme == CcScheme::HStore {
            let parts = std::mem::take(&mut self.cores[ci].txn.parts_held);
            for p in parts {
                if let Some(core) = self.parts[p as usize].release(me) {
                    wakes.push(core);
                }
            }
        }
        for cj in wakes {
            self.wake(cj, wake_at);
        }
    }

    /// DFS over the waits-for relation induced by the lock queues. Returns
    /// the chosen victim if `me`'s pending request closes a cycle —
    /// following the paper, the cycle member holding the fewest locks.
    fn find_deadlock_victim(&mut self, me: TxnId, table: u32, key: Key) -> Option<TxnId> {
        let mut path: Vec<TxnId> = vec![me];
        let mut visited: Vec<TxnId> = vec![me];
        if self.dfs_cycle(me, table, key, me, &mut path, &mut visited) {
            let victim = path
                .iter()
                .copied()
                .min_by_key(|&t| {
                    let held = self.cores[core_of(t) as usize].txn.held.len();
                    (held, t)
                })
                .expect("cycle path is non-empty");
            return Some(victim);
        }
        None
    }

    fn edges_of(&mut self, waiter: TxnId, table: u32, key: Key) -> Vec<TxnId> {
        let TupleCc::Lock(q) = &self.db.tuple(table, key).cc else {
            return Vec::new();
        };
        let mode = q
            .waiters
            .iter()
            .find(|w| w.txn == waiter)
            .map(|w| w.mode)
            .unwrap_or(Mode::X);
        let mut edges: Vec<TxnId> = q
            .owners
            .iter()
            .filter(|o| o.txn != waiter && !o.mode.compatible(mode))
            .map(|o| o.txn)
            .collect();
        for w in q.waiters.iter() {
            if w.txn == waiter {
                break;
            }
            edges.push(w.txn); // queued ahead of us
        }
        edges
    }

    fn dfs_cycle(
        &mut self,
        start: TxnId,
        table: u32,
        key: Key,
        node: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut Vec<TxnId>,
    ) -> bool {
        let edges = self.edges_of(node, table, key);
        for next in edges {
            if next == start {
                return true;
            }
            if visited.contains(&next) {
                continue;
            }
            visited.push(next);
            // Follow `next` only if it is itself blocked on some tuple.
            let cj = core_of(next) as usize;
            let c = &self.cores[cj];
            if c.txn.txn_id != next || !c.parked {
                continue;
            }
            let Some((t2, k2)) = c.waiting_on else {
                continue;
            };
            path.push(next);
            if self.dfs_cycle(start, t2, k2, next, path, visited) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// Abort a parked deadlock victim: pull it out of its wait queue and
    /// schedule its rollback.
    fn abort_parked_victim(&mut self, victim: TxnId, now: Cycles) {
        let cj = core_of(victim) as usize;
        let (table, key) = match self.cores[cj].waiting_on {
            Some(x) => x,
            None => return, // resolved concurrently
        };
        if let TupleCc::Lock(q) = &mut self.db.tuple(table, key).cc {
            q.waiters.retain(|w| w.txn != victim);
        }
        self.cores[cj].txn.abort_reason = Some(AbortReason::Deadlock);
        self.cores[cj].phase = Phase::AbortStart;
        self.wake(cj as u32, now + self.costs.wake_latency());
    }
}
