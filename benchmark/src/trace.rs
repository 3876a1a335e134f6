//! Benchmark-side spans. The traced pass wraps each call into the engine
//! in a span recorded here, in a per-thread vector allocated before the
//! round starts; nothing is written until the run is over. Spans inside
//! the engine are a later change — these sit at the seams the benchmark
//! itself crosses (`gen`, `run_template`, `submit_id`, ticket resolved).

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// Raw spans kept per trace file; beyond this only the aggregates grow.
const RAW_SPANS_KEPT: usize = 100_000;

/// No parent: the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process — one clock for every
/// thread, so spans from different threads line up.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's vector, or [`ROOT`].
    pub parent: u32,
    /// Shared by every span of one transaction / request.
    pub op_id: u64,
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    pub thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(thread: u32, capacity: usize) -> Self {
        Self {
            thread,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Record a span; returns its index for children to name as parent.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    /// Duration minus the part covered by child spans.
    self_ns: u64,
}

/// Everything one traced run recorded, ready to write out.
#[derive(Debug, Default)]
pub struct TraceSink {
    groups: Vec<(String, Vec<Tracer>)>,
}

impl TraceSink {
    /// Keep the tracers of one traced round under `label` (e.g. the scheme).
    pub fn add(&mut self, label: &str, tracers: Vec<Tracer>) {
        self.groups.push((label.into(), tracers));
    }

    /// Per-group, per-name aggregates plus the first [`RAW_SPANS_KEPT`]
    /// raw spans.
    fn to_json(&self, workload: &str) -> Json {
        let mut groups = Vec::new();
        let mut raw = Vec::new();
        for (label, tracers) in &self.groups {
            let mut aggs: Vec<(&'static str, Agg)> = Vec::new();
            for t in tracers {
                let mut child_ns = vec![0u64; t.spans.len()];
                for s in &t.spans {
                    if s.parent != ROOT {
                        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                    }
                }
                for (i, s) in t.spans.iter().enumerate() {
                    let dur = s.end_ns - s.start_ns;
                    let pos = match aggs.iter().position(|(n, _)| *n == s.name) {
                        Some(p) => p,
                        None => {
                            aggs.push((s.name, Agg::default()));
                            aggs.len() - 1
                        }
                    };
                    let a = &mut aggs[pos].1;
                    a.count += 1;
                    a.total_ns += dur;
                    a.self_ns += dur.saturating_sub(child_ns[i]);
                    if raw.len() < RAW_SPANS_KEPT {
                        raw.push(Json::obj(vec![
                            ("group", Json::Str(label.clone())),
                            ("thread", Json::Num(f64::from(t.thread))),
                            ("id", Json::Num(i as f64)),
                            ("name", Json::Str(s.name.into())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                if s.parent == ROOT {
                                    Json::Null
                                } else {
                                    Json::Num(f64::from(s.parent))
                                },
                            ),
                            ("op_id", Json::Num(s.op_id as f64)),
                        ]));
                    }
                }
            }
            let spans = aggs
                .into_iter()
                .map(|(name, a)| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("count", Json::Num(a.count as f64)),
                            ("total_ns", Json::Num(a.total_ns as f64)),
                            ("self_ns", Json::Num(a.self_ns as f64)),
                            ("mean_ns", Json::Num(a.total_ns as f64 / a.count as f64)),
                        ]),
                    )
                })
                .collect();
            groups.push((label.clone(), Json::Obj(spans)));
        }
        Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("aggregates", Json::Obj(groups)),
            ("raw_spans_kept", Json::Num(raw.len() as f64)),
            ("raw_spans", Json::Arr(raw)),
        ])
    }

    pub fn write(&self, workload: &str, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(path, self.to_json(workload).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(0, 8);
        let txn = t.span("txn", 100, 200, ROOT, 7);
        t.span("gen", 100, 130, txn, 7);
        t.span("run_template", 130, 195, txn, 7);
        let mut sink = TraceSink::default();
        sink.add("NO_WAIT", vec![t]);
        let j = sink.to_json("w");
        let agg = j.get("aggregates").unwrap().get("NO_WAIT").unwrap();
        let txn = agg.get("txn").unwrap();
        assert_eq!(txn.get("total_ns").unwrap().as_f64(), Some(100.0));
        assert_eq!(txn.get("self_ns").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            agg.get("gen").unwrap().get("self_ns").unwrap().as_f64(),
            Some(30.0)
        );
        let raw = j.get("raw_spans").unwrap().as_arr().unwrap();
        assert_eq!(raw.len(), 3);
        assert_eq!(raw[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(raw[0].get("parent"), Some(&Json::Null));
        assert_eq!(raw[2].get("op_id").unwrap().as_f64(), Some(7.0));
    }
}
