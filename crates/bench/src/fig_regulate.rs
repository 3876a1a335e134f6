//! fig_regulate — adaptive contention regulation: feedback backoff vs the
//! fixed restart schedule, on the engine and in the 1024-core model.
//!
//! The paper's abort analysis (§4.2) shows the optimistic family (OCC,
//! SILO, TICTOC) thrashing under skew: every conflict wastes the whole
//! transaction, and an immediate retry usually re-collides with the same
//! hot tuple. The engine's answer is a per-worker AIMD controller
//! (`abyss_core::BackoffCtl`): the abort rate over a sliding window sets
//! the retry delay, per-scheme gain constants (`CcProtocol`
//! capabilities) make OCC-family schemes regulate aggressively while 2PL
//! barely moves, and commits decay the delay back toward zero. This
//! figure measures what the controller buys:
//!
//! 1. **Sweep** (`sweep` section): YCSB write-intensive theta sweep, the
//!    fixed restart schedule vs the adaptive controller, on four
//!    contrasting schemes (NO_WAIT as the 2PL control, OCC/SILO/TICTOC
//!    as the regulated family). Workers deliberately oversubscribe small
//!    hosts ([`SWEEP_WORKERS`] threads regardless of cores): contention
//!    regulation only matters when conflicting transactions actually
//!    interleave, and a backed-off worker donates its timeslice to the
//!    conflict winner — the effect the controller exists to exploit.
//!    Caveat for interpreting the artifact: on a host without true
//!    parallelism, optimistic validation almost never observes a
//!    conflict (transactions overlap only across a preemption), so the
//!    OCC-family columns mainly demonstrate that the controller is free
//!    when it has nothing to regulate; the scheme that does abort under
//!    timeslicing (NO_WAIT, whose held locks outlive a preemption) is
//!    where the controller visibly engages. The high-contention
//!    OCC-family claim is carried by the 1024-core model section, where
//!    conflicts are real.
//! 2. **1024-core model** (`sim_1024` section): the cost-model simulator
//!    at the paper's core count, theta 0.8, the fixed restart delay
//!    (DBx1000's 25 µs `ABORT_PENALTY`) vs the regulated model: the
//!    delay the feedback controller converges to, taken as the best
//!    operating point over [`REG_CANDIDATES`]. The fixed delay is in
//!    the candidate set, so regulation is no-regret by construction;
//!    the interesting output is which multiplier each scheme lands on.
//!    Deterministic — CI asserts the regulated model never loses.
//!
//! Output: aligned tables + `results/fig_regulate.json` in the shared
//! envelope. `--quick` shrinks the sweep for CI smoke.

use std::sync::Arc;

use crate::harness::emit::{num, Envelope};
use crate::harness::hw::hw_counters_label;
use crate::harness::Windows;
use crate::{ycsb_point, HarnessArgs, Report};
use abyss_common::zipf::ZipfGen;
use abyss_common::{CcScheme, RunStats, TxnTemplate};
use abyss_core::{run_workers, Database, EngineConfig};
use abyss_sim::{CostModel, SimConfig};
use abyss_workload::ycsb::{self, YcsbConfig, YcsbGen, YCSB_TABLE};

/// The four contrasting schemes: the paper's best-scaling 2PL variant as
/// the control (gain 10%, barely regulates) against the optimistic
/// family (gain 100%, the schemes the controller is for).
pub const SCHEMES: [CcScheme; 4] = [
    CcScheme::NoWait,
    CcScheme::Occ,
    CcScheme::Silo,
    CcScheme::TicToc,
];

/// Zipf skew sweep: uniform through the paper's thrashing regime.
pub const THETAS: [f64; 5] = [0.0, 0.4, 0.6, 0.8, 0.9];
/// Quick sweep: the uncontended guard point and one hot point.
pub const THETAS_QUICK: [f64; 2] = [0.0, 0.8];

/// Sweep worker threads. Intentionally *not* capped by the host's cores
/// (see the module docs): four conflicting streams exist even on a
/// one-core host, and the park table's early-yield ladder turns adaptive
/// pauses into timeslice donations there.
pub const SWEEP_WORKERS: u32 = 4;

/// Rows in the sweep's YCSB table — small enough that theta 0.8+ makes
/// hot tuples genuinely hot at four workers.
const SWEEP_ROWS: u64 = 16 * 1024;

/// One measured mode (fixed or adaptive) of one sweep point.
pub struct ModeStats {
    pub tput: f64,
    pub abort_rate: f64,
    pub backoffs: u64,
    pub backoff_ns: u64,
    pub backoff_delay_ns: u64,
}

impl ModeStats {
    fn of(stats: &RunStats, tput: f64) -> Self {
        Self {
            tput,
            abort_rate: stats.abort_rate(),
            backoffs: stats.backoffs,
            backoff_ns: stats.backoff_ns,
            backoff_delay_ns: stats.backoff_delay_ns,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"tput\":{},\"abort_rate\":{},\"backoffs\":{},\
             \"backoff_ns\":{},\"backoff_delay_ns\":{}}}",
            num(self.tput.round()),
            num((self.abort_rate * 10_000.0).round() / 10_000.0),
            self.backoffs,
            self.backoff_ns,
            self.backoff_delay_ns,
        )
    }
}

/// Per-worker write-intensive YCSB generators sharing one Zipf table.
fn sweep_gens(
    cfg: &YcsbConfig,
    workers: u32,
    seed: u64,
) -> Vec<Box<dyn FnMut() -> TxnTemplate + Send>> {
    let zipf = ZipfGen::new(cfg.table_rows, cfg.theta);
    (0..workers)
        .map(|w| {
            let mut g = YcsbGen::with_zipf(cfg.clone(), zipf.clone(), seed ^ (u64::from(w) << 20))
                .for_worker(w);
            Box::new(move || g.next_txn()) as Box<dyn FnMut() -> TxnTemplate + Send>
        })
        .collect()
}

fn sweep_db(scheme: CcScheme, cfg: &YcsbConfig, adaptive: bool, workers: u32) -> Arc<Database> {
    let mut ecfg = EngineConfig::new(scheme, workers);
    if adaptive {
        ecfg = ecfg.with_adaptive_backoff();
    }
    let db = Database::new(ecfg, ycsb::catalog(cfg)).expect("engine config");
    db.load_table(YCSB_TABLE, 0..cfg.table_rows, ycsb::init_row)
        .expect("load");
    db
}

/// One timed engine point: `scheme` at `theta`, fixed or adaptive backoff.
pub fn sweep_point(scheme: CcScheme, theta: f64, adaptive: bool, windows: Windows) -> ModeStats {
    let cfg = YcsbConfig {
        table_rows: SWEEP_ROWS,
        ..YcsbConfig::write_intensive(theta)
    };
    let db = sweep_db(scheme, &cfg, adaptive, SWEEP_WORKERS);
    let seed = 0x9E6A ^ (u64::from(adaptive) << 32) ^ scheme as u64;
    let gens = sweep_gens(&cfg, SWEEP_WORKERS, seed);
    let out = run_workers(&db, gens, windows.warmup, windows.measure);
    let tput = out.txn_per_sec();
    ModeStats::of(&out.stats, tput)
}

fn sweep_section(args: &HarnessArgs) -> String {
    let thetas: &[f64] = if args.quick { &THETAS_QUICK } else { &THETAS };
    let windows = Windows::engine(args.quick);
    let mut rep = Report::new(&[
        "scheme",
        "theta",
        "fixed tput",
        "adaptive tput",
        "adp/fix",
        "fix abrt",
        "adp abrt",
        "max delay us",
    ]);
    let mut series = Vec::new();
    for &scheme in &SCHEMES {
        for &theta in thetas {
            let fixed = sweep_point(scheme, theta, false, windows);
            let adaptive = sweep_point(scheme, theta, true, windows);
            let ratio = adaptive.tput / fixed.tput.max(1.0);
            rep.row(vec![
                scheme.name().to_string(),
                format!("{theta:.1}"),
                format!("{:.0}", fixed.tput),
                format!("{:.0}", adaptive.tput),
                format!("{ratio:.3}"),
                format!("{:.2}", fixed.abort_rate),
                format!("{:.2}", adaptive.abort_rate),
                format!("{:.0}", adaptive.backoff_delay_ns as f64 / 1_000.0),
            ]);
            series.push(format!(
                "{{\"scheme\":\"{}\",\"theta\":{theta},\"fixed\":{},\
                 \"adaptive\":{},\"adaptive_over_fixed\":{}}}",
                scheme.name(),
                fixed.json(),
                adaptive.json(),
                num((ratio * 1_000.0).round() / 1_000.0),
            ));
        }
    }
    rep.print(&format!(
        "fig_regulate — YCSB write-intensive, {SWEEP_WORKERS} workers, \
         {SWEEP_ROWS} rows: fixed vs adaptive backoff"
    ));
    format!(
        "{{\"workload\":\"ycsb_write_intensive\",\"table_rows\":{SWEEP_ROWS},\
         \"workers\":{SWEEP_WORKERS},\"series\":[{}]}}",
        series.join(",")
    )
}

/// Restart-delay multipliers the regulated model may converge to. The
/// fixed baseline (1x, DBx1000's 25 µs `ABORT_PENALTY`) is deliberately
/// in the set: a feedback controller that finds no better operating
/// point falls back to the fixed behaviour, so regulation is no-regret
/// against the fixed delay by construction — the interesting output is
/// *which* multiplier each scheme converges to.
pub const REG_CANDIDATES: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 10.0];

/// The default cost model with the abort-restart delay scaled by `mult`.
fn scaled_cost(mult: f64) -> CostModel {
    let mut cost = CostModel::default();
    cost.abort_penalty = ((cost.abort_penalty as f64) * mult) as u64;
    cost
}

/// The paper's core count for the 1024-core model section.
pub const SIM_CORES: u32 = 1024;
/// Skew for the model section: inside the thrashing regime.
pub const SIM_THETA: f64 = 0.8;

/// One simulator point at `cores`, theta [`SIM_THETA`], with `cost`.
pub fn sim_point(scheme: CcScheme, cores: u32, cost: CostModel, args: &HarnessArgs) -> (f64, f64) {
    let mut sim = SimConfig::new(scheme, cores);
    sim.cost = cost;
    let ycsb_cfg = YcsbConfig::write_intensive(SIM_THETA);
    let r = ycsb_point(sim, &ycsb_cfg, args);
    (r.txn_per_sec(), r.stats.abort_rate())
}

/// The operating point the regulated model converges to at `cores`:
/// best throughput over [`REG_CANDIDATES`], as `(mult, tput, abort)`.
pub fn regulated_point(scheme: CcScheme, cores: u32, args: &HarnessArgs) -> (f64, f64, f64) {
    let mut best = (1.0, 0.0, 0.0);
    for &mult in &REG_CANDIDATES {
        let (t, a) = sim_point(scheme, cores, scaled_cost(mult), args);
        if t > best.1 {
            best = (mult, t, a);
        }
    }
    best
}

fn sim_section(args: &HarnessArgs) -> String {
    let default_penalty = CostModel::default().abort_penalty;
    let mut rep = Report::new(&[
        "scheme",
        "default tput",
        "regulated tput",
        "reg/def",
        "mult",
        "def abrt",
        "reg abrt",
    ]);
    let mut series = Vec::new();
    for &scheme in &SCHEMES {
        let (d_tput, d_abrt) = sim_point(scheme, SIM_CORES, CostModel::default(), args);
        let (mult, r_tput, r_abrt) = regulated_point(scheme, SIM_CORES, args);
        let ratio = r_tput / d_tput.max(1.0);
        rep.row(vec![
            scheme.name().to_string(),
            format!("{d_tput:.0}"),
            format!("{r_tput:.0}"),
            format!("{ratio:.3}"),
            format!("{mult}x"),
            format!("{d_abrt:.2}"),
            format!("{r_abrt:.2}"),
        ]);
        series.push(format!(
            "{{\"scheme\":\"{}\",\"default_tput\":{},\"regulated_tput\":{},\
             \"regulated_over_default\":{},\"regulated_penalty_mult\":{},\
             \"default_abort_rate\":{},\"regulated_abort_rate\":{}}}",
            scheme.name(),
            num(d_tput.round()),
            num(r_tput.round()),
            num((ratio * 1_000.0).round() / 1_000.0),
            num(mult),
            num((d_abrt * 10_000.0).round() / 10_000.0),
            num((r_abrt * 10_000.0).round() / 10_000.0),
        ));
    }
    rep.print(&format!(
        "1024-core model, theta {SIM_THETA}: fixed vs regulated restart delay"
    ));
    format!(
        "{{\"cores\":{SIM_CORES},\"theta\":{SIM_THETA},\
         \"abort_penalty_default\":{default_penalty},\
         \"penalty_mult_candidates\":{:?},\"series\":[{}]}}",
        REG_CANDIDATES,
        series.join(",")
    )
}

/// Run the full fig_regulate experiment (parses CLI args itself).
pub fn run() {
    let args = HarnessArgs::parse();
    let sweep = sweep_section(&args);
    let sim = sim_section(&args);

    // The validator holds quick (CI-smoke) artifacts to structural
    // checks only; perf-margin claims apply to pinned default/full runs.
    let mode = if args.quick {
        "quick"
    } else if args.full {
        "full"
    } else {
        "default"
    };
    let mut env = Envelope::new("fig_regulate");
    env.meta_num("sweep_workers", f64::from(SWEEP_WORKERS))
        .meta_str("mode", mode)
        .meta_str("hw_counters", hw_counters_label())
        .section("sweep", &sweep)
        .section("sim_1024", &sim);
    env.write().expect("write results/fig_regulate.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn adaptive_sweep_point_regulates_under_skew() {
        // A tiny hot-skew OCC point with the controller on must still
        // make progress, and the exported controller gauges must move
        // (aborts exist at four oversubscribed workers on a hot table).
        let w = Windows {
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(80),
        };
        let adaptive = sweep_point(CcScheme::Occ, 0.9, true, w);
        assert!(adaptive.tput > 0.0);
        assert!(
            adaptive.abort_rate == 0.0 || adaptive.backoff_delay_ns > 0,
            "aborts occurred but the controller never chose a delay"
        );
        // The fixed path must report no controller activity at all.
        let fixed = sweep_point(CcScheme::Occ, 0.9, false, w);
        assert_eq!(fixed.backoffs, 0);
        assert_eq!(fixed.backoff_delay_ns, 0);
    }

    #[test]
    fn regulated_model_never_loses_at_scale() {
        // Deterministic simulator: check the no-regret claim at a small
        // core count so the test stays fast; the figure pins 1024. The
        // 1x candidate makes `regulated >= default` structural — this
        // guards the wiring (candidate set, argmax) rather than physics.
        let args = HarnessArgs {
            quick: true,
            full: false,
        };
        for scheme in [CcScheme::Occ, CcScheme::Silo] {
            let (d, _) = sim_point(scheme, 16, CostModel::default(), &args);
            let (mult, r, _) = regulated_point(scheme, 16, &args);
            assert!(
                REG_CANDIDATES.contains(&mult),
                "{scheme}: converged multiplier {mult} not a candidate"
            );
            assert!(
                r >= d,
                "{scheme}: regulated {r:.0} < default {d:.0} despite 1x candidate"
            );
        }
    }
}
