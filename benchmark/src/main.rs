//! The repo benchmark. See `benchmark/README.md` for every workload and
//! metric; `benchmark/run.sh` builds this and passes its arguments on.
//!
//! ```text
//! --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! [--seed N] [--seconds S]                        all workloads, untraced then traced
//! --smoke                                         all workloads, one short round each
//! --agree [--seed N] [--seconds S]                untraced set twice, A against B
//! --compare A.json B.json                         two result files, row by row
//! ```

mod engine;
mod json;
mod layers;
mod report;
mod service;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use engine::Env;
use json::Json;
use report::{RunResult, WORKLOADS};
use trace::TraceSink;

/// `run_seconds` of `BENCHMARK.json`: the default when `--seconds` is absent.
pub const DEFAULT_SECONDS: f64 = 18.0;
/// Nine schemes x one 0.2 s round.
const SMOKE_SECONDS: f64 = 1.8;

/// Peak resident set of this process so far (`VmHWM`), in MB. One process
/// per workload, so this is the workload's own peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a `--workload` run leaves its detailed result for a full run to
/// collect.
fn run_file(env: &Env, workload: &str, traced: bool) -> PathBuf {
    env.out
        .join(format!("run-{workload}-t{}.json", u8::from(traced)))
}

/// Run one workload in this process.
fn run_workload(workload: &str, env: &Env, traced: bool) -> Result<RunResult, String> {
    let mut res = RunResult::new(workload, env.seed, env.seconds, traced);
    let spec = engine::spec(workload);
    if spec.is_none() && workload != "service_open" {
        return Err(format!("unknown workload {workload:?}"));
    }
    if traced {
        let mut sink = TraceSink::default();
        match &spec {
            Some(spec) => engine::traced_pass(spec, env, &mut res, &mut sink),
            None => service::traced_pass(env, &mut res, &mut sink),
        }
        layers::run(env, &mut res, &mut sink);
        sink.write(workload, &env.out)
            .map_err(|e| format!("write trace: {e}"))?;
    } else {
        match &spec {
            Some(spec) => engine::run(spec, env, &mut res),
            None => service::run(env, &mut res),
        }
        res.push("peak_rss_mb", "MB", peak_rss_mb());
    }
    // Report exactly the metrics BENCHMARK.json declares, in its order.
    let declared = if traced {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    res.metrics
        .sort_by_key(|m| declared.iter().position(|d| d.name == m.name));
    let same = res.metrics.len() == declared.len()
        && res
            .metrics
            .iter()
            .zip(&declared)
            .all(|(m, d)| m.name == d.name && m.unit == d.unit && m.value.is_finite());
    res.check(same, || {
        "reported metrics differ from the declared list (name, unit or a non-finite value)".into()
    });
    let file = run_file(env, workload, traced);
    std::fs::write(&file, res.to_json().to_string()).map_err(|e| format!("write {file:?}: {e}"))?;
    Ok(res)
}

/// Run every workload as a child process (so `peak_rss_mb` is per
/// workload) and collect the detailed results the children wrote.
fn run_set(env: &Env, traced: bool) -> Result<(Vec<(String, Json)>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Vec::new();
    let mut ok = true;
    for (w, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &env.seed.to_string()])
            .args(["--seconds", &env.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&env.out)
            .status()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        ok &= status.success();
        let file = run_file(env, w, traced);
        let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file:?}: {e}"))?;
        all.push((w.to_string(), Json::parse(&text)?));
    }
    Ok((all, ok))
}

fn write_result(
    path: &Path,
    env: &Env,
    untraced: Vec<(String, Json)>,
    traced: Vec<(String, Json)>,
) -> Result<Json, String> {
    let j = Json::obj(vec![
        ("seed", Json::Num(env.seed as f64)),
        ("seconds", Json::Num(env.seconds)),
        ("workers", Json::Num(f64::from(env.workers))),
        ("untraced", Json::Obj(untraced)),
        ("traced", Json::Obj(traced)),
    ]);
    std::fs::write(path, j.to_string()).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());
    Ok(j)
}

fn real_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut traced = false;
    let mut out = PathBuf::from("benchmark/out");
    let (mut smoke, mut agree) = (false, false);
    let mut compare = None;
    while let Some(a) = args.next() {
        let mut val = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => workload = Some(val("a workload name")?),
            "--seed" => {
                seed = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match val("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(val("a directory")?),
            "--smoke" => smoke = true,
            "--agree" => agree = true,
            "--compare" => compare = Some((val("A.json")?, val("B.json")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    if let Some((a, b)) = compare {
        let load = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("read {p}: {e}"))
                .and_then(|t| Json::parse(&t))
        };
        return Ok(report::compare(&load(&a)?, &load(&b)?) == 0);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let env = Env {
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        workers: nproc.min(4),
        out,
    };
    std::fs::create_dir_all(&env.out).map_err(|e| format!("create {:?}: {e}", env.out))?;

    if let Some(w) = workload {
        let res = run_workload(&w, &env, traced)?;
        res.print();
        return Ok(res.correct());
    }
    if agree {
        let (a, ok_a) = run_set(&env, false)?;
        let a = write_result(&env.out.join("agree-A.json"), &env, a, Vec::new())?;
        let (b, ok_b) = run_set(&env, false)?;
        let b = write_result(&env.out.join("agree-B.json"), &env, b, Vec::new())?;
        return Ok(report::compare(&a, &b) == 0 && ok_a && ok_b);
    }
    let (untraced, ok_u) = run_set(&env, false)?;
    // The smoke test stops here: all workloads, all schemes, checks on.
    let (traced, ok_t) = if smoke {
        (Vec::new(), true)
    } else {
        run_set(&env, true)?
    };
    write_result(&env.out.join("result.json"), &env, untraced, traced)?;
    Ok(ok_u && ok_t)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("abyss-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
