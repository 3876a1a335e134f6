//! Table 2 — the per-scheme bottleneck summary, regenerated from data.
//!
//! For every scheme, run the low-contention and high-contention YCSB
//! configurations at a high core count and report which §3.2 category
//! dominates its lost time — the measured counterpart of the paper's
//! qualitative table.

use abyss_bench::paper_figs::emit_table;
use abyss_bench::{fmt_m, ycsb_point, HarnessArgs, Report};
use abyss_common::{CcScheme, Phase};
use abyss_sim::SimConfig;
use abyss_workload::ycsb::YcsbConfig;

fn dominant_overhead(r: &abyss_sim::SimReport) -> String {
    // The largest non-useful-work category (Logging folded into Manager).
    Phase::PAPER
        .into_iter()
        .zip(r.stats.phase_ns.paper_fractions())
        .filter(|(p, _)| *p != Phase::UsefulWork)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .map(|(p, f)| format!("{} ({:.0}%)", p, f * 100.0))
        .unwrap()
}

fn main() {
    let args = HarnessArgs::parse();
    let cores = if args.quick { 64 } else { 1024 };
    let low = YcsbConfig::write_intensive(0.0);
    let high = YcsbConfig::write_intensive(0.8);

    let mut rep = Report::new(&[
        "scheme",
        "low-cont Mtxn/s",
        "low-cont bottleneck",
        "high-cont Mtxn/s",
        "high-cont bottleneck",
        "high-cont abort rate",
    ]);
    for scheme in CcScheme::NON_PARTITIONED {
        let rl = ycsb_point(SimConfig::new(scheme, cores), &low, &args);
        let rh = ycsb_point(SimConfig::new(scheme, cores), &high, &args);
        rep.row(vec![
            scheme.to_string(),
            fmt_m(rl.txn_per_sec()),
            dominant_overhead(&rl),
            fmt_m(rh.txn_per_sec()),
            dominant_overhead(&rh),
            format!("{:.2}", rh.stats.abort_rate()),
        ]);
    }
    emit_table(
        &rep,
        &format!("Table 2 — measured bottleneck summary at {cores} cores"),
        "table2",
    );
}
