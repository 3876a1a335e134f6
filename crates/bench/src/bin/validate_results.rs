//! validate_results — CI's single gate over every benchmark artifact.
//!
//! Replaces the per-figure python heredocs that used to live in the
//! workflow: every `results/*.json` must parse with the harness's own
//! parser and satisfy the shared envelope contract
//! ([`json::validate_envelope`]: figure tag, meta provenance, uniquely
//! named sections, percentile monotonicity everywhere, admission
//! accounting reconciliation). On top of the generic contract, figures
//! CI smokes get targeted semantic checks — the qualitative claims each
//! figure exists to pin:
//!
//! * `layout_micro` — the padding audit covers the 2PL lockword and the
//!   epoch slots with positive padded and unpadded costs; the NUMA
//!   arena churn hits the node arena on the same-node pattern.
//! * `fig_modern` — SILO and TICTOC allocate **zero** global timestamps;
//!   OCC pays the allocator (the contrast the figure is about).
//! * `fig_regulate` — the adaptive backoff controller matches or beats
//!   the fixed schedule for at least one OCC-family scheme in the hot
//!   regime (theta >= 0.8) and idles at theta 0; the 1024-core
//!   regulated restart delay never loses and wins >= 1% for the
//!   optimistic family. Wall-clock margins are only enforced on
//!   non-quick (pinned) artifacts.
//! * `fig_service` — shedding is zero at the lowest offered point and
//!   nonzero at the highest (admission control engages past saturation);
//!   the batched-submission probe ran both paths to commit.
//! * `fig_breakdown` — DL_DETECT's wait fraction rises with theta in the
//!   simulator section (the paper's headline thrashing story).
//! * `fig_durability` — group commit keeps ≥ 80% of undurable
//!   throughput while per-commit fsync doesn't, and log counters match
//!   each mode (off logs nothing, fsync forces every commit record).
//!
//! `results/fig_breakdown.prom`, when present, is parsed as Prometheus
//! exposition text: cumulative histogram buckets must be monotone and
//!   end in `+Inf` matching `_count`.
//!
//! Usage: `validate_results [dir]` (default `results`). Exits nonzero on
//! the first missing contract; prints one line per validated file.

use std::process::ExitCode;

use abyss_bench::harness::json::{self, Value};

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_results: {msg}");
    ExitCode::FAILURE
}

/// Pull `sections[name]` out of a parsed envelope.
fn section<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("sections")?
        .as_arr()?
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

// ---------------------------------------------------------------------
// Per-figure semantic checks
// ---------------------------------------------------------------------

fn check_layout_micro(doc: &Value) -> Result<(), String> {
    let audit = section(doc, "padding_audit").ok_or("missing padding_audit section")?;
    let cases = audit
        .get("cases")
        .and_then(Value::as_arr)
        .ok_or("padding_audit: no cases array")?;
    for want in ["2pl_lockword", "epoch_slots"] {
        let case = cases
            .iter()
            .find(|c| c.get("hot_word").and_then(Value::as_str) == Some(want))
            .ok_or_else(|| format!("padding_audit: missing {want} case"))?;
        for key in ["padded_ns_per_op", "unpadded_ns_per_op"] {
            if num(case, key).is_none_or(|v| v <= 0.0) {
                return Err(format!("padding_audit/{want}: non-positive {key}"));
            }
        }
    }
    let numa = section(doc, "numa").ok_or("missing numa section")?;
    if num(numa, "nodes").is_none_or(|n| n < 1.0) {
        return Err("numa: node count < 1".into());
    }
    let cases = numa
        .get("cases")
        .and_then(Value::as_arr)
        .ok_or("numa: no cases array")?;
    for want in ["local", "interleaved"] {
        let case = cases
            .iter()
            .find(|c| c.get("pattern").and_then(Value::as_str) == Some(want))
            .ok_or_else(|| format!("numa: missing {want} case"))?;
        if num(case, "ns_per_alloc").is_none_or(|v| v <= 0.0) {
            return Err(format!("numa/{want}: non-positive ns_per_alloc"));
        }
    }
    // Steady-state same-node churn must recycle parked blocks out of the
    // node arena — a zero hit rate means the arena path is dead code.
    let local = cases
        .iter()
        .find(|c| c.get("pattern").and_then(Value::as_str) == Some("local"))
        .unwrap();
    if num(local, "arena_hit_rate").is_none_or(|v| v <= 0.0) {
        return Err("numa/local: arena never hit".into());
    }
    Ok(())
}

fn check_fig_regulate(doc: &Value) -> Result<(), String> {
    // Quick (CI-smoke) regenerations are too short for the wall-clock
    // margin claims — hold them to the structural and deterministic
    // checks only. The pinned artifact is a default or full run.
    let quick = doc
        .get("meta")
        .and_then(|m| m.get("mode"))
        .and_then(Value::as_str)
        == Some("quick");
    // --- sweep: the adaptive controller's engine-side claim ---
    let sweep = section(doc, "sweep").ok_or("missing sweep section")?;
    let series = sweep
        .get("series")
        .and_then(Value::as_arr)
        .ok_or("sweep: no series")?;
    if series.is_empty() {
        return Err("sweep: empty series".into());
    }
    let occ_family = ["OCC", "SILO", "TICTOC"];
    let mut hot_win = false;
    for pt in series {
        let scheme = pt.get("scheme").and_then(Value::as_str).unwrap_or("?");
        let theta = num(pt, "theta").unwrap_or(-1.0);
        let fixed = num(pt.get("fixed").ok_or("sweep point missing fixed")?, "tput").unwrap_or(0.0);
        let adaptive = num(
            pt.get("adaptive").ok_or("sweep point missing adaptive")?,
            "tput",
        )
        .unwrap_or(0.0);
        if fixed <= 0.0 || adaptive <= 0.0 {
            return Err(format!("sweep/{scheme}@{theta}: zero throughput"));
        }
        // Uncontended guard: the controller must idle at theta 0 — a big
        // regression there means it fires without aborts. Loose bound;
        // the pinned artifact is held to ±2%.
        if !quick && theta == 0.0 && adaptive < 0.85 * fixed {
            return Err(format!(
                "sweep/{scheme}@0: adaptive {adaptive:.0} lost >15% vs fixed {fixed:.0}"
            ));
        }
        if occ_family.contains(&scheme) && theta >= 0.8 && adaptive >= fixed {
            hot_win = true;
        }
    }
    if !quick && !hot_win {
        return Err(
            "sweep: adaptive never matched fixed for any OCC-family scheme at theta >= 0.8".into(),
        );
    }
    // --- sim_1024: the deterministic 1024-core model claim ---
    let sim = section(doc, "sim_1024").ok_or("missing sim_1024 section")?;
    if num(sim, "cores").unwrap_or(0.0) != 1024.0 {
        return Err("sim_1024: not run at 1024 cores".into());
    }
    // `regulated >= default` is structural (the fixed delay is in the
    // candidate set); the real finding is a non-trivial margin for the
    // optimistic family, which only appears if a *different* restart
    // delay genuinely wins in the thrash regime.
    let mut sim_margin = false;
    for s in sim.get("series").and_then(Value::as_arr).unwrap_or(&[]) {
        let name = s.get("scheme").and_then(Value::as_str).unwrap_or("?");
        let d = num(s, "default_tput").unwrap_or(0.0);
        let r = num(s, "regulated_tput").unwrap_or(0.0);
        if d <= 0.0 || r <= 0.0 {
            return Err(format!("sim_1024/{name}: zero throughput"));
        }
        if occ_family.contains(&name) {
            if r < d {
                return Err(format!(
                    "sim_1024/{name}: regulated model lost ({r:.0} vs {d:.0})"
                ));
            }
            if r >= d * 1.01 {
                sim_margin = true;
            }
        }
    }
    if !quick && !sim_margin {
        return Err(
            "sim_1024: no OCC-family scheme shows a >=1% regulated win at 1024 cores".into(),
        );
    }
    Ok(())
}

fn check_fig_modern(doc: &Value) -> Result<(), String> {
    let sections = doc.get("sections").and_then(Value::as_arr).unwrap_or(&[]);
    let mut saw_rts = false;
    for sec in sections {
        let where_ = sec.get("name").and_then(Value::as_str).unwrap_or("?");
        let series = sec
            .get("series")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{where_}: no series"))?;
        for s in series {
            let scheme = s.get("scheme").and_then(Value::as_str).unwrap_or("?");
            let points = s.get("points").and_then(Value::as_arr).unwrap_or(&[]);
            if points.is_empty() {
                return Err(format!("{where_}/{scheme}: empty points"));
            }
            for p in points {
                let ts = num(p, "ts_allocated").unwrap_or(-1.0);
                match scheme {
                    // The figure's whole point: the modern schemes never
                    // touch the central allocator.
                    "SILO" | "TICTOC" => {
                        if ts != 0.0 {
                            return Err(format!(
                                "{where_}/{scheme}: allocated {ts} global timestamps"
                            ));
                        }
                        if num(p, "txn_per_sec").is_none_or(|v| v <= 0.0) {
                            return Err(format!("{where_}/{scheme}: zero throughput"));
                        }
                        if scheme == "TICTOC" && num(p, "rts_extensions").unwrap_or(0.0) > 0.0 {
                            saw_rts = true;
                        }
                    }
                    "OCC" if ts <= 0.0 => {
                        return Err(format!("{where_}/OCC: allocator-free? ts_allocated={ts}"));
                    }
                    _ => {}
                }
            }
        }
    }
    if !saw_rts {
        return Err("TICTOC reported zero rts extensions everywhere".into());
    }
    Ok(())
}

fn check_fig_service(doc: &Value) -> Result<(), String> {
    for key in ["closed_loop_peak", "service_peak"] {
        if doc
            .get("meta")
            .and_then(|m| num(m, key))
            .is_none_or(|v| v <= 0.0)
        {
            return Err(format!("meta.{key} missing or non-positive"));
        }
    }
    let sweep = section(doc, "sweep").ok_or("missing sweep section")?;
    let series = sweep
        .get("series")
        .and_then(Value::as_arr)
        .ok_or("sweep: no series")?;
    if series.len() < 2 {
        return Err("sweep: need an under- and an over-load point".into());
    }
    for pt in series {
        let acked = num(pt.get("high").ok_or("point missing high dist")?, "count").unwrap_or(0.0)
            + num(pt.get("low").ok_or("point missing low dist")?, "count").unwrap_or(0.0);
        let accepted = num(pt, "accepted").unwrap_or(-1.0);
        if acked != accepted {
            return Err(format!("{accepted} accepted but {acked} acked"));
        }
    }
    // The envelope validator already reconciled the admission counters;
    // here we pin the *shape*: no shedding well under saturation, some
    // shedding at the 2x overload point.
    let first = &series[0];
    let last = &series[series.len() - 1];
    if num(first, "shed_rate").unwrap_or(1.0) != 0.0 {
        return Err(format!(
            "shedding at the lowest offered point ({:?}/s)",
            num(first, "offered")
        ));
    }
    if num(last, "shed_rate").unwrap_or(0.0) <= 0.0 {
        return Err("no shedding at the overload point".into());
    }
    if num(last, "achieved").unwrap_or(0.0) <= 0.0 {
        return Err("overloaded service made no progress".into());
    }
    // Batched-submission probe: both paths must have run and committed.
    let batch = section(doc, "batch").ok_or("missing batch section")?;
    for key in ["single_ns_per_submit", "batch_ns_per_submit"] {
        if num(batch, key).is_none_or(|v| v <= 0.0) {
            return Err(format!("batch: non-positive {key}"));
        }
    }
    for key in ["single_commits", "batch_commits"] {
        if num(batch, key).is_none_or(|v| v <= 0.0) {
            return Err(format!("batch: no commits ({key})"));
        }
    }
    Ok(())
}

fn check_fig_breakdown(doc: &Value) -> Result<(), String> {
    let sim = section(doc, "sim").ok_or("missing sim section")?;
    let series = sim
        .get("series")
        .and_then(Value::as_arr)
        .ok_or("sim: no series")?;
    // The paper's headline shift: DL_DETECT becomes wait-dominated as
    // contention rises.
    let mut dl: Vec<(f64, f64)> = series
        .iter()
        .filter(|s| {
            s.get("scheme").and_then(Value::as_str) == Some("DL_DETECT")
                && s.get("workload").and_then(Value::as_str) == Some("ycsb")
        })
        .filter_map(|s| {
            Some((
                num(s, "theta")?,
                s.get("fractions").and_then(|f| num(f, "wait"))?,
            ))
        })
        .collect();
    dl.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    if dl.len() < 2 {
        return Err(format!(
            "sim: {} DL_DETECT ycsb points, need >= 2",
            dl.len()
        ));
    }
    let waits: Vec<f64> = dl.iter().map(|p| p.1).collect();
    if waits.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!(
            "DL_DETECT wait fraction not monotone in theta: {dl:?}"
        ));
    }
    if waits[waits.len() - 1] <= waits[0] {
        return Err(format!(
            "DL_DETECT wait fraction flat across thetas: {dl:?}"
        ));
    }
    Ok(())
}

fn check_fig_durability(doc: &Value) -> Result<(), String> {
    let ratios = section(doc, "ratios").ok_or("missing ratios section")?;
    let schemes = ratios
        .get("schemes")
        .and_then(Value::as_arr)
        .ok_or("ratios: no schemes array")?;
    for want in ["SILO", "NO_WAIT"] {
        let r = schemes
            .iter()
            .find(|s| s.get("scheme").and_then(Value::as_str) == Some(want))
            .ok_or_else(|| format!("ratios: missing {want}"))?;
        let group = num(r, "group_ratio").unwrap_or(0.0);
        if group < 0.8 {
            return Err(format!("{want}: group commit lost too much ({group})"));
        }
        let fsync = num(r, "fsync_ratio").unwrap_or(1.0);
        if fsync >= 0.8 {
            return Err(format!(
                "{want}: per-commit fsync suspiciously cheap ({fsync})"
            ));
        }
    }
    let engine = section(doc, "engine").ok_or("missing engine section")?;
    for s in engine.get("series").and_then(Value::as_arr).unwrap_or(&[]) {
        let scheme = s.get("scheme").and_then(Value::as_str).unwrap_or("?");
        for m in s.get("modes").and_then(Value::as_arr).unwrap_or(&[]) {
            let mode = m.get("mode").and_then(Value::as_str).unwrap_or("?");
            let records = num(m, "log_records").unwrap_or(-1.0);
            match mode {
                "off" if records != 0.0 => {
                    return Err(format!("{scheme}/off: logged {records} records"));
                }
                "group" | "fsync" if records <= 0.0 => {
                    return Err(format!("{scheme}/{mode}: logged nothing"));
                }
                "fsync" if num(m, "log_fsyncs").unwrap_or(0.0) < records => {
                    return Err(format!("{scheme}/fsync: fewer fsyncs than commit records"));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Prometheus exposition (fig_breakdown.prom)
// ---------------------------------------------------------------------

fn check_prom(text: &str) -> Result<(), String> {
    let mut samples: Vec<(&str, f64)> = Vec::new();
    for ln in text.lines() {
        if ln.is_empty() || ln.starts_with('#') {
            continue;
        }
        let (name, value) = ln
            .rsplit_once(' ')
            .ok_or_else(|| format!("unparseable sample line: {ln}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric sample value: {ln}"))?;
        samples.push((name, value));
    }
    if !samples
        .iter()
        .any(|(k, _)| k.starts_with("abyss_phase_ns_total{"))
    {
        return Err("no abyss_phase_ns_total samples".into());
    }
    for hist in ["abyss_commit_latency_ns", "abyss_abort_latency_ns"] {
        let prefix = format!("{hist}_bucket{{");
        let le_of = |key: &str| -> Result<f64, String> {
            let raw = key
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .ok_or_else(|| format!("{hist}: bucket without le: {key}"))?;
            Ok(if raw == "+Inf" {
                f64::INFINITY
            } else {
                raw.parse().map_err(|_| format!("{hist}: bad le {raw}"))?
            })
        };
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for (k, v) in &samples {
            if k.starts_with(&prefix) {
                buckets.push((le_of(k)?, *v));
            }
        }
        if buckets.is_empty() {
            return Err(format!("{hist}: no _bucket samples"));
        }
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        if buckets.windows(2).any(|w| w[0].1 > w[1].1) {
            return Err(format!("{hist}: cumulative bucket counts not monotone"));
        }
        let (last_le, last_count) = buckets[buckets.len() - 1];
        if last_le != f64::INFINITY {
            return Err(format!("{hist}: no +Inf bucket"));
        }
        let count = samples
            .iter()
            .find(|(k, _)| *k == format!("{hist}_count"))
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{hist}: missing _count"))?;
        if last_count != count {
            return Err(format!(
                "{hist}: +Inf bucket {last_count} != _count {count}"
            ));
        }
        if !samples.iter().any(|(k, _)| *k == format!("{hist}_sum")) {
            return Err(format!("{hist}: missing _sum"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".to_string());
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => return fail(&format!("cannot read {dir}: {e}")),
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return fail(&format!("{dir} holds no *.json to validate"));
    }

    let mut validated = 0usize;
    for path in &paths {
        let name = path.display();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{name}: {e}")),
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => return fail(&format!("{name}: parse error: {e}")),
        };
        if let Err(e) = json::validate_envelope(&doc) {
            return fail(&format!("{name}: envelope violation: {e}"));
        }
        let figure = doc.get("figure").and_then(Value::as_str).unwrap_or("");
        let semantic = match figure {
            "layout_micro" => check_layout_micro(&doc),
            "fig_modern" => check_fig_modern(&doc),
            "fig_regulate" => check_fig_regulate(&doc),
            "fig_service" => check_fig_service(&doc),
            "fig_breakdown" => check_fig_breakdown(&doc),
            "fig_durability" => check_fig_durability(&doc),
            _ => Ok(()),
        };
        if let Err(e) = semantic {
            return fail(&format!("{name}: {figure} semantic check failed: {e}"));
        }
        println!("validate_results: {name} OK ({figure})");
        validated += 1;
    }

    let prom = std::path::Path::new(&dir).join("fig_breakdown.prom");
    if let Ok(text) = std::fs::read_to_string(&prom) {
        if let Err(e) = check_prom(&text) {
            return fail(&format!("{}: {e}", prom.display()));
        }
        println!("validate_results: {} OK (prometheus)", prom.display());
        validated += 1;
    }

    println!("validate_results: {validated} artifact(s) validated in {dir}/");
    ExitCode::SUCCESS
}
