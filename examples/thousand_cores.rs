//! Stare into the abyss: run all seven schemes on 1024 *simulated* cores —
//! the paper's headline experiment, on your laptop.
//!
//! ```sh
//! cargo run --release --example thousand_cores [theta] [--breakdown]
//! cargo run --release --example thousand_cores 0.8
//! cargo run --release --example thousand_cores 0.8 --breakdown
//! ```
//!
//! `--breakdown` switches the table to the seven-phase profile (the
//! paper's six §3.2 categories plus Logging) and writes each scheme's
//! stack to `results/thousand_cores_breakdown.json` (shared envelope —
//! CI's `validate_results` checks it like every other artifact).

use abyss::bench::harness::emit::Envelope;
use abyss::common::{CcScheme, Phase};
use abyss::sim::{run_sim, SimConfig, SimTable};
use abyss::workload::ycsb::{YcsbConfig, YcsbGen};

fn main() {
    let mut theta: f64 = 0.6;
    let mut breakdown = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--breakdown" => breakdown = true,
            s => theta = s.parse().expect("theta in [0,1)"),
        }
    }
    let cores = 1024;
    println!("simulating {cores} cores, write-intensive YCSB, theta={theta}\n");
    if breakdown {
        println!(
            "{:<11} {:>9} {:>9}  {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "scheme", "Mtxn/s", "aborts/s", "useful", "abort", "ts", "index", "wait", "mgr", "log"
        );
    } else {
        println!(
            "{:<11} {:>9} {:>9}  {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "scheme", "Mtxn/s", "aborts/s", "useful", "abort", "ts", "index", "wait", "mgr"
        );
    }

    let ycsb_cfg = YcsbConfig::write_intensive(theta);
    let zipf = abyss::common::zipf::ZipfGen::new(ycsb_cfg.table_rows, theta);
    let mut stacks: Vec<(CcScheme, String)> = Vec::new();
    for scheme in CcScheme::ALL {
        let mut sim = SimConfig::new(scheme, cores);
        sim.warmup = 1_000_000;
        sim.measure = 5_000_000;
        let cfg2 = if scheme == CcScheme::HStore {
            YcsbConfig {
                parts: cores,
                ..ycsb_cfg.clone()
            }
        } else {
            ycsb_cfg.clone()
        };
        let gens = (0..cores)
            .map(|c| {
                let mut g = YcsbGen::with_zipf(cfg2.clone(), zipf.clone(), u64::from(c) + 7);
                Box::new(move || g.next_txn()) as Box<dyn FnMut() -> abyss::common::TxnTemplate>
            })
            .collect();
        let tables = vec![SimTable {
            row_size: 1008,
            counter_init: 0,
        }];
        let r = run_sim(sim, tables, gens);
        if breakdown {
            let p = &r.stats.phase_ns;
            let f: Vec<String> = Phase::ALL
                .iter()
                .map(|&ph| format!("{:>5.0}%", p.fraction(ph) * 100.0))
                .collect();
            println!(
                "{:<11} {:>9.3} {:>9.3}  {}",
                scheme.to_string(),
                r.txn_per_sec() / 1e6,
                r.aborts_per_sec() / 1e6,
                f.join(" ")
            );
            stacks.push((scheme, p.to_json()));
        } else {
            // The paper's six categories: Logging folded into Manager.
            let f: Vec<String> = r
                .stats
                .phase_ns
                .paper_fractions()
                .iter()
                .map(|f| format!("{:>5.0}%", f * 100.0))
                .collect();
            println!(
                "{:<11} {:>9.3} {:>9.3}  {}",
                scheme.to_string(),
                r.txn_per_sec() / 1e6,
                r.aborts_per_sec() / 1e6,
                f.join(" ")
            );
        }
    }
    if breakdown {
        let mut env = Envelope::new("thousand_cores_breakdown");
        env.meta_num("cores", f64::from(cores))
            .meta_num("theta", theta)
            .section(
                "breakdown",
                &format!(
                    "{{\"schemes\":[{}]}}",
                    stacks
                        .iter()
                        .map(|(s, j)| format!("{{\"scheme\":\"{}\",\"breakdown\":{j}}}", s.name()))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            );
        if env.write().is_ok() {
            println!("\n[json] results/thousand_cores_breakdown.json");
        }
    }
    println!("\n(the paper's conclusion: nobody survives a thousand cores unscathed)");
}
