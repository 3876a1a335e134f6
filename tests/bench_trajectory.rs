//! The committed benchmark trajectory: every perf or subtraction change
//! commits `BENCH_<n>.json` at the repo root — a full
//! `bash benchmark/run.sh` result (`benchmark/out/result.json`, untraced
//! and traced sets) plus a `meta` stanza with the git sha and seeds. This
//! checks that the newest file parses with the harness's JSON parser and
//! reports exactly the workloads and metrics `BENCHMARK.json` declares,
//! so a renamed metric or a hand-trimmed file cannot pass for a
//! measurement.

use std::path::{Path, PathBuf};

use abyss::bench::harness::json::{self, Value};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// The `BENCH_<n>.json` with the largest `n`.
fn newest_bench() -> PathBuf {
    std::fs::read_dir(root())
        .expect("read the repo root")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let n: u32 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, root().join(name)))
        })
        .max_by_key(|(n, _)| *n)
        .expect("no BENCH_<n>.json at the repo root")
        .1
}

/// The `name` of every entry of `BENCHMARK.json`'s array `key`, in order.
fn declared(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|d| d.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// The keys of a JSON object, in order.
fn keys(v: Option<&Value>) -> Vec<String> {
    v.and_then(Value::as_obj)
        .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

#[test]
fn newest_bench_file_reports_the_declared_benchmark() {
    let spec = load(&root().join("BENCHMARK.json"));
    let path = newest_bench();
    let bench = load(&path);
    let file = path.display();

    let mut workloads = declared(&spec, "workloads");
    workloads.sort();
    for (set, metrics) in [
        ("untraced", declared(&spec, "end_to_end")),
        ("traced", declared(&spec, "per_layer")),
    ] {
        let runs = bench.get(set);
        let mut have = keys(runs);
        have.sort();
        assert_eq!(have, workloads, "{file}: {set} workloads");
        for w in &workloads {
            let run = runs.and_then(|r| r.get(w));
            assert_eq!(
                keys(run.and_then(|r| r.get("metrics"))),
                metrics,
                "{file}: {set}/{w} metric names"
            );
        }
    }

    let meta = bench.get("meta").expect("a meta stanza");
    assert!(
        meta.get("git_sha")
            .and_then(Value::as_str)
            .is_some_and(|s| !s.is_empty()),
        "{file}: meta.git_sha"
    );
    assert!(
        meta.get("seeds")
            .and_then(Value::as_arr)
            .is_some_and(|s| !s.is_empty()),
        "{file}: meta.seeds"
    );
}
