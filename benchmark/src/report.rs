//! Metric names, the result of one run, and the tables that compare two
//! results (`--compare`, `--agree`).
//!
//! The names and bounds here are the same ones `BENCHMARK.json` lists; a
//! unit test keeps the two in step.

use abyss_common::CcScheme;

use crate::json::Json;
use crate::stats;

/// The four workloads, in the order a full run visits them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ycsb_read",
        "16 uniform reads per txn over 200k 1 KB rows (larger than cache), no conflicts, no WAL: pure per-access overhead of every scheme",
    ),
    (
        "ycsb_hot",
        "50/50 read/update at theta 0.9 over 100k rows (hot set cache-resident), no WAL: write path plus conflict handling of every scheme",
    ),
    (
        "tpcc_durable",
        "TPC-C OrderStatus/Payment/NewOrder with group-commit WAL on: logging, B+-tree inserts and scans, epoch registration do the work",
    ),
    (
        "service_open",
        "requests through the serving front end: closed-loop capacity per scheme, open-loop due-to-ack latency at fixed rates on NO_WAIT",
    ),
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: f64,
}

fn def(name: impl Into<String>, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut v: Vec<MetricDef> = CcScheme::ALL
        .iter()
        .map(|s| def(format!("txn_per_s.{}", s.name()), "1/s", true, 0.25))
        .collect();
    v.push(def("txn_per_s.geomean", "1/s", true, 0.25));
    v.push(def("ack_p50_us", "us", false, 0.25));
    v.push(def("setup_s", "s", false, 0.25));
    v.push(def("peak_rss_mb", "MB", false, 0.25));
    v
}

/// The per-layer metrics every traced run reports.
pub fn per_layer() -> Vec<MetricDef> {
    let lo = |n: &str, u| def(n, u, false, 0.0);
    let mut v = vec![
        lo("workload.ycsb.gen_ns.uniform", "ns"),
        lo("workload.ycsb.gen_ns.zipf09", "ns"),
        lo("workload.tpcc.gen_ns", "ns"),
        lo("core.ts.alloc_ns.atomic.t1", "ns"),
        lo("core.ts.alloc_ns.atomic.tW", "ns"),
        lo("core.ts.alloc_ns.batched16.tW", "ns"),
        lo("core.ts.alloc_ns.clock.tW", "ns"),
        lo("storage.index.get_ns.small", "ns"),
        lo("storage.index.get_ns.large", "ns"),
        lo("storage.index.insert_ns", "ns"),
        lo("storage.btree.get_ns", "ns"),
        lo("storage.btree.insert_ns", "ns"),
        lo("storage.btree.scan_ns_per_key", "ns"),
        lo("storage.btree.height", "count"),
        lo("storage.mempool.alloc_free_ns.1k", "ns"),
        lo("storage.mempool.alloc_uninit_free_ns.1k", "ns"),
        lo("storage.wal.append_ns_per_txn", "ns"),
        lo("storage.wal.append_ns_per_100b", "ns"),
        lo("storage.wal.group_flush_ms", "ms"),
        lo("storage.wal.bytes_per_txn", "count"),
        lo("storage.wal.fsyncs_per_s", "1/s"),
        lo("core.epoch.enter_exit_ns", "ns"),
        lo("core.epoch.advance_ns", "ns"),
    ];
    for s in CcScheme::ALL {
        for part in ["begin_ns", "read_ns", "write_ns", "commit_ns"] {
            v.push(lo(&format!("core.schemes.{}.{part}", s.name()), "ns"));
        }
    }
    for s in CcScheme::ALL {
        v.push(lo(
            &format!("core.schemes.{}.abort_ratio", s.name()),
            "ratio",
        ));
        v.push(lo(&format!("core.schemes.{}.wait_frac", s.name()), "ratio"));
    }
    for s in CcScheme::ALL {
        v.push(lo(&format!("ledger.residual_frac.{}", s.name()), "ratio"));
    }
    v.extend([
        lo("core.serve.submit_ns", "ns"),
        lo("core.serve.roundtrip_ns", "ns"),
        lo("core.serve.overhead_ns", "ns"),
        lo("core.serve.ack_p50_us.lo", "us"),
        lo("core.serve.ack_p99_us.hi", "us"),
        lo("core.serve.shed_ratio.hi", "ratio"),
        lo("core.serve.gen_late_p99_us", "us"),
        lo("core.obs.trace_overhead_ratio", "ratio"),
    ]);
    v
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The reported value: the median of `rounds` when there are any.
    pub value: f64,
    /// The measured rounds behind `value` (empty for single readings).
    pub rounds: Vec<f64>,
}

/// What one `--workload` run measured.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Operations generated or submitted.
    pub attempted: u64,
    /// Operations that ended as anything but a commit or a by-design
    /// TPC-C user abort.
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (tail percentiles, sample counts, flags).
    pub info: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.into(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            rounds: Vec::new(),
        });
    }

    /// Report the median of `rounds`, keeping the rounds for `--compare`.
    pub fn push_rounds(&mut self, name: impl Into<String>, unit: &'static str, rounds: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: stats::median(&rounds),
            rounds,
        });
    }

    /// The per-scheme end-to-end block every workload reports: each
    /// scheme's `txn_per_s` (median of its rounds), their geometric mean,
    /// and `setup_s` — set-up is paid once per scheme, so it is the sum of
    /// each scheme's median set-up over its visits.
    pub fn push_per_scheme(&mut self, tps: Vec<Vec<f64>>, setup: &[Vec<f64>]) {
        let medians: Vec<f64> = tps.iter().map(|r| stats::median(r)).collect();
        for (scheme, rounds) in CcScheme::ALL.iter().zip(tps) {
            self.push_rounds(format!("txn_per_s.{}", scheme.name()), "1/s", rounds);
        }
        self.push("txn_per_s.geomean", "1/s", stats::geomean(&medians));
        self.push("setup_s", "s", setup.iter().map(|s| stats::median(s)).sum());
    }

    /// One scheme's contention on the traced workload: scheduler aborts it
    /// retried per attempt (`operations` first tries plus the retries),
    /// and the share of attempt time spent waiting.
    pub fn push_contention(
        &mut self,
        scheme: CcScheme,
        retries: u64,
        operations: u64,
        wait_frac: f64,
    ) {
        let name = scheme.name();
        self.push(
            format!("core.schemes.{name}.abort_ratio"),
            "ratio",
            retries as f64 / (operations + retries) as f64,
        );
        self.push(format!("core.schemes.{name}.wait_frac"), "ratio", wait_frac);
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Every metric as `workload metric value unit`, the failure share,
    /// any failed checks, then the one-line JSON result the driver reads.
    pub fn print(&self) {
        for line in &self.info {
            println!("# {} {line}", self.workload);
        }
        for m in &self.metrics {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!(
            "{} failed/attempted {}/{}",
            self.workload, self.failed, self.attempted
        );
        for f in &self.check_failures {
            println!("{} CHECK FAILED: {f}", self.workload);
        }
        println!(
            "{}",
            Json::obj(vec![
                ("correct", Json::Bool(self.correct())),
                ("attempted", Json::Num(self.attempted as f64)),
                ("failed", Json::Num(self.failed as f64)),
                ("metrics", self.metrics_json(false)),
            ])
        );
    }

    fn metrics_json(&self, with_rounds: bool) -> Json {
        let one = |m: &Metric| {
            let mut f = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ];
            if with_rounds {
                let rounds = m.rounds.iter().map(|&r| Json::Num(r)).collect();
                f.push(("rounds", Json::Arr(rounds)));
            }
            (m.name.clone(), Json::obj(f))
        };
        Json::Obj(self.metrics.iter().map(one).collect())
    }

    /// The detailed form kept in result files (rounds included).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "check_failures",
                Json::Arr(
                    self.check_failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("metrics", self.metrics_json(true)),
        ])
    }
}

/// One side of a comparison: `(value, rounds)` of `metric` on `workload`
/// in a result file written by a full run.
fn lookup(file: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = file
        .get("untraced")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let rounds = m
        .get("rounds")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, rounds))
}

fn quartile_text(rounds: &[f64]) -> String {
    match stats::quartiles(rounds) {
        Some((q1, q3)) => format!("[{q1:.4}..{q3:.4}]"),
        None => "[-]".into(),
    }
}

/// Print one row per workload x end-to-end metric for result files `a`
/// (the base of every ratio) and `b`; returns how many rows are worse
/// than the metric's bound.
///
/// A row whose rounds spread wider than the bound on either side cannot
/// show "no change": it reads `unresolved`, not `unchanged`.
pub fn compare(a: &Json, b: &Json) -> usize {
    println!(
        "{:<13} {:<22} {:>14} {:>24} {:>14} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "B/A", "bound"
    );
    let mut worse = 0;
    for (w, _) in WORKLOADS {
        for d in end_to_end() {
            let (Some((va, ra)), Some((vb, rb))) = (lookup(a, w, &d.name), lookup(b, w, &d.name))
            else {
                println!("{w:<13} {:<22} missing on one side", d.name);
                worse += 1;
                continue;
            };
            let ratio = vb / va;
            let change = if d.higher_is_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let noisy = stats::spread(&ra).max(stats::spread(&rb)) > d.bound;
            let verdict = if change > d.bound {
                worse += 1;
                "FAIL worse"
            } else if noisy {
                "unresolved"
            } else if -change > d.bound {
                "ok better"
            } else {
                "ok unchanged"
            };
            println!(
                "{w:<13} {:<22} {va:>14.4} {:>24} {vb:>14.4} {:>24} {ratio:>8.4} {:>6.2}  {verdict}",
                d.name,
                quartile_text(&ra),
                quartile_text(&rb),
                d.bound
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(tps: f64, rounds: &[f64]) -> Json {
        let mut per_workload = Vec::new();
        for (w, _) in WORKLOADS {
            let mut r = RunResult::new(w, 1, 1.0, false);
            for d in end_to_end() {
                if d.name == "txn_per_s.NO_WAIT" {
                    r.metrics.push(Metric {
                        name: d.name,
                        unit: d.unit,
                        value: tps,
                        rounds: rounds.to_vec(),
                    });
                } else {
                    r.push(d.name, d.unit, 5.0);
                }
            }
            per_workload.push((w.to_string(), r.to_json()));
        }
        Json::obj(vec![("untraced", Json::Obj(per_workload))])
    }

    #[test]
    fn result_json_round_trips() {
        let mut r = RunResult::new("ycsb_read", 42, 18.0, false);
        r.attempted = 1_234_567;
        r.push_rounds("txn_per_s.NO_WAIT", "1/s", vec![3.0, 1.0, 2.0]);
        r.push("setup_s", "s", 0.123_456_789_012);
        r.check(false, || "sum mismatch".into());
        let text = r.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, r.to_json());
        let m = back
            .get("metrics")
            .unwrap()
            .get("txn_per_s.NO_WAIT")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(m.get("rounds").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(back.get("attempted").unwrap().as_f64(), Some(1_234_567.0));
    }

    #[test]
    fn compare_counts_only_rows_beyond_the_bound() {
        let base = result_file(100.0, &[99.0, 100.0, 101.0]);
        assert_eq!(compare(&base, &base), 0);
        // 20% slower: inside the 25% bound
        assert_eq!(compare(&base, &result_file(80.0, &[79.0, 80.0, 81.0])), 0);
        // 30% slower on all four workloads
        assert_eq!(compare(&base, &result_file(70.0, &[69.0, 70.0, 71.0])), 4);
        // faster is never a failure
        assert_eq!(
            compare(&base, &result_file(130.0, &[129.0, 130.0, 131.0])),
            0
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert_eq!(end_to_end().len(), 13);
        assert_eq!(per_layer().len(), 94);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 13 + 94);
    }

    /// `BENCHMARK.json` at the repo root must say exactly what this file
    /// defines: workloads, metrics, units, directions and bounds. On a
    /// mismatch the failure message carries the text the file should hold.
    #[test]
    fn benchmark_json_matches_the_code() {
        let s = |t: &str| Json::Str(t.into());
        let metric = |d: &MetricDef, with_bound: bool| {
            let mut f = vec![
                ("name", s(&d.name)),
                ("unit", s(d.unit)),
                (
                    "better",
                    s(if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }),
                ),
            ];
            if with_bound {
                f.push(("bound", Json::Num(d.bound)));
            }
            Json::obj(f)
        };
        let want = Json::obj(vec![
            ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
            ("paths", Json::Arr(vec![s("benchmark")])),
            ("run_seconds", Json::Num(crate::DEFAULT_SECONDS)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|(n, why)| Json::obj(vec![("name", s(n)), ("why", s(why))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(end_to_end().iter().map(|d| metric(d, true)).collect()),
            ),
            (
                "per_layer",
                Json::Arr(per_layer().iter().map(|d| metric(d, false)).collect()),
            ),
        ]);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let have = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        assert!(
            have.as_ref() == Some(&want),
            "BENCHMARK.json should read:\n{want}"
        );
    }
}
