//! # abyss-bench
//!
//! The harness that regenerates every figure of the paper's evaluation
//! (§4–§5). One binary per figure (`fig03` … `fig17`, plus `table2`);
//! each prints the paper's series as an aligned table and writes
//! `results/figNN.csv`.
//!
//! Conventions:
//!
//! * `--quick` shrinks sweeps and windows (CI smoke);
//! * `--full` runs the paper's complete core-count grid;
//! * the default is a representative sweep that preserves every figure's
//!   shape in minutes instead of hours.

pub mod fig_breakdown;
pub mod fig_durability;
pub mod fig_latency;
pub mod fig_modern;
pub mod fig_regulate;
pub mod fig_service;
pub mod fig_ycsbe;
pub mod harness;
pub mod paper_figs;

use std::io::Write as _;
use std::path::Path;

use abyss_common::rng::Xoshiro256;
use abyss_common::zipf::ZipfGen;
use abyss_common::{CcScheme, TxnTemplate};
use abyss_sim::{run_sim, SimConfig, SimReport, SimTable};
use abyss_workload::tpcc::{self, TpccConfig, TpccGen};
use abyss_workload::ycsb::{self, YcsbConfig, YcsbGen};

/// Default core-count sweep (log-spaced, preserves the curve shapes).
pub const SWEEP: &[u32] = &[1, 4, 16, 64, 256, 512, 1024];
/// The paper's full grid.
pub const SWEEP_FULL: &[u32] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800, 1024];
/// Quick smoke sweep.
pub const SWEEP_QUICK: &[u32] = &[1, 8, 64];

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// Shrink everything (CI smoke).
    pub quick: bool,
    /// Run the paper's full grid.
    pub full: bool,
}

impl HarnessArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut a = Self {
            quick: false,
            full: false,
        };
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => a.quick = true,
                "--full" => a.full = true,
                other => {
                    eprintln!("unknown argument {other:?} (expected --quick/--full)");
                    std::process::exit(2);
                }
            }
        }
        a
    }

    /// The core sweep for this invocation.
    pub fn sweep(&self) -> &'static [u32] {
        if self.quick {
            SWEEP_QUICK
        } else if self.full {
            SWEEP_FULL
        } else {
            SWEEP
        }
    }

    /// Measured window in cycles.
    pub fn measure(&self) -> u64 {
        if self.quick {
            1_500_000
        } else {
            8_000_000
        }
    }

    /// Warmup window in cycles.
    pub fn warmup(&self) -> u64 {
        if self.quick {
            300_000
        } else {
            1_500_000
        }
    }

    /// Apply the windows to a [`SimConfig`].
    pub fn configure(&self, cfg: &mut SimConfig) {
        cfg.warmup = self.warmup();
        cfg.measure = self.measure();
    }
}

/// Build the simulator's table metadata for the YCSB database.
pub fn ycsb_sim_tables() -> Vec<SimTable> {
    let schema =
        abyss_storage::Schema::key_plus_payload(ycsb::PAYLOAD_COLUMNS, ycsb::PAYLOAD_WIDTH);
    vec![SimTable {
        row_size: schema.row_size(),
        counter_init: 0,
    }]
}

/// Build the simulator's table metadata for TPC-C.
pub fn tpcc_sim_tables(cfg: &TpccConfig) -> Vec<SimTable> {
    tpcc::catalog(cfg)
        .tables()
        .iter()
        .map(|t| SimTable {
            row_size: t.schema.row_size(),
            counter_init: if t.id == tpcc::TpccTable::District.id() {
                tpcc::FIRST_NEW_ORDER_ID
            } else {
                0
            },
        })
        .collect()
}

/// Per-core YCSB generators sharing one Zipf table (the zeta sum over 20M
/// rows is expensive; compute it once).
pub fn ycsb_gens(cfg: &YcsbConfig, cores: u32, seed: u64) -> Vec<Box<dyn FnMut() -> TxnTemplate>> {
    let zipf = ZipfGen::new(cfg.table_rows, cfg.theta);
    (0..cores)
        .map(|c| {
            let mut g = YcsbGen::with_zipf(cfg.clone(), zipf.clone(), seed ^ (u64::from(c) << 20))
                .for_worker(c);
            Box::new(move || g.next_txn()) as Box<dyn FnMut() -> TxnTemplate>
        })
        .collect()
}

/// Per-core TPC-C generators.
pub fn tpcc_gens(cfg: &TpccConfig, cores: u32, seed: u64) -> Vec<Box<dyn FnMut() -> TxnTemplate>> {
    (0..cores)
        .map(|c| {
            let mut g = TpccGen::new(cfg.clone(), c, seed ^ (u64::from(c) << 20));
            Box::new(move || g.next_txn()) as Box<dyn FnMut() -> TxnTemplate>
        })
        .collect()
}

/// Run one YCSB point in the simulator.
pub fn ycsb_point(mut sim: SimConfig, ycsb_cfg: &YcsbConfig, args: &HarnessArgs) -> SimReport {
    args.configure(&mut sim);
    let gens = ycsb_gens(ycsb_cfg, sim.cores, sim.seed);
    run_sim(sim, ycsb_sim_tables(), gens)
}

/// Run one TPC-C point in the simulator. H-STORE partitions by warehouse.
pub fn tpcc_point(mut sim: SimConfig, tpcc_cfg: &TpccConfig, args: &HarnessArgs) -> SimReport {
    args.configure(&mut sim);
    if sim.scheme == CcScheme::HStore {
        sim.hstore_parts = tpcc_cfg.warehouses;
    }
    let mut cfg = tpcc_cfg.clone();
    cfg.workers = sim.cores;
    let gens = tpcc_gens(&cfg, sim.cores, sim.seed);
    run_sim(sim, tpcc_sim_tables(&cfg), gens)
}

/// A result table accumulated by a figure binary.
#[derive(Debug, Default)]
pub struct Report {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Print as an aligned table with a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        for row in &self.rows {
            line(row);
        }
    }

    /// Write `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        let mut f = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return;
            }
        };
        let _ = writeln!(f, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(f, "{}", row.join(","));
        }
        println!("  [csv] {}", path.display());
    }
}

/// Format a throughput in million-per-second units (the paper's axes).
pub fn fmt_m(v: f64) -> String {
    format!("{:.3}", v / 1e6)
}

/// Format a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Print a §3.2 six-category breakdown line for a report row (Logging
/// folded into Manager, as in the paper).
pub fn breakdown_cells(report: &SimReport) -> Vec<String> {
    report
        .stats
        .phase_ns
        .paper_fractions()
        .iter()
        .map(|f| format!("{:.2}", f))
        .collect()
}

/// Deterministic helper RNG for harness-side decisions.
pub fn harness_rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_increasing() {
        for sweep in [SWEEP, SWEEP_FULL, SWEEP_QUICK] {
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
            assert!(*sweep.last().unwrap() <= 1024);
        }
    }

    #[test]
    fn ycsb_tables_have_paper_row_size() {
        let t = ycsb_sim_tables();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].row_size, 1008);
    }

    #[test]
    fn tpcc_tables_mark_district_counter() {
        let t = tpcc_sim_tables(&TpccConfig::default());
        assert_eq!(t.len(), 9);
        assert_eq!(
            t[tpcc::TpccTable::District.id() as usize].counter_init,
            3000
        );
        assert_eq!(t[tpcc::TpccTable::Stock.id() as usize].counter_init, 0);
    }

    #[test]
    fn report_rejects_ragged_rows() {
        let mut r = Report::new(&["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let bad =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.row(vec!["1".into()])));
        assert!(bad.is_err());
    }

    #[test]
    fn tiny_end_to_end_ycsb_point() {
        let args = HarnessArgs {
            quick: true,
            full: false,
        };
        let ycsb_cfg = YcsbConfig {
            table_rows: 100_000,
            ..YcsbConfig::read_only()
        };
        let mut sim = SimConfig::new(CcScheme::NoWait, 2);
        sim.measure = 500_000;
        sim.warmup = 50_000;
        let r = ycsb_point(sim, &ycsb_cfg, &args);
        assert!(r.stats.commits > 0);
    }
}
