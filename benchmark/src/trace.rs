//! Benchmark-side spans. The traced runs wrap each call into a layer's
//! public function in a span recorded here; the program itself is not
//! instrumented further. Spans stay in memory and are analysed (or
//! written as Chrome trace JSON) when the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. `op` identifies the request or grid task the span
/// belongs to; `parent` is 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span; [`Recorder::close`] ends it.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    start: Instant,
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: u64, op: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, op, start: Instant::now() }
    }

    pub fn close(&self, open: Open) {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            tid: TID.with(|t| *t),
            start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn span<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        let open = self.open(name, parent, op);
        let out = f(open.id);
        self.close(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span buffer lock")
    }
}

/// Measured cost of recording one span on this host, in nanoseconds.
fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let rec = Recorder::new();
    let started = Instant::now();
    for i in 0..N {
        rec.span("calibration", 0, i, |_| ());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// What recording `spans` cost, as a share of the time of the root spans
/// named `root`: the calibrated per-span cost times the span count.
pub fn overhead(spans: &[Span], root: &str) -> f64 {
    let root_ns: u64 = spans.iter().filter(|s| s.name == root).map(Span::dur_ns).sum();
    span_cost_ns() * spans.len() as f64 / root_ns.max(1) as f64
}

/// Span durations by name, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Total duration of the spans with `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
}

/// Per-op total of the spans with `name`, in microseconds.
pub fn per_op_us(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
    }
    out
}

fn children(spans: &[Span]) -> HashMap<u64, Vec<&Span>> {
    let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        map.entry(s.parent).or_default().push(s);
    }
    map
}

/// Nanoseconds of `parent` covered by the union of `kids`' intervals.
fn covered_ns(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of the spans with `name` (duration minus the part their
/// children cover), summed, in seconds.
pub fn self_time_s(spans: &[Span], name: &str) -> f64 {
    let kids = children(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() - kids.get(&s.id).map_or(0, |k| covered_ns(s, k)))
        .sum::<u64>() as f64
        / 1e9
}

/// Share of the root spans' time (spans named `root`) that their direct
/// children account for: how much of each op the trace attributes to a
/// layer.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let kids = children(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == root) {
        covered += kids.get(&s.id).map_or(0, |k| covered_ns(s, k));
        total += s.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Chrome trace-event JSON, the format `repro --trace` writes.
pub fn chrome_json(spans: &[Span]) -> String {
    let records: Vec<telemetry::SpanRecord> = spans
        .iter()
        .map(|s| telemetry::SpanRecord {
            id: s.id,
            parent: s.parent,
            tid: s.tid,
            name: s.name,
            labels: vec![("op".to_string(), s.op.to_string())],
            start_us: s.start_ns / 1000,
            dur_us: s.dur_ns() / 1000,
        })
        .collect();
    telemetry::export::chrome_trace(&records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, op: 1, tid: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_and_coverage_use_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),  // overlaps a: union 10..60
            span(4, 3, "c", 35, 45),  // grandchild: not a direct child of root
            span(5, 1, "d", 90, 120), // clipped to the root's end
        ];
        assert_eq!(self_time_s(&spans, "root"), 40e-9);
        assert_eq!(self_time_s(&spans, "b"), 20e-9);
        assert!((coverage(&spans, "root") - 0.6).abs() < 1e-12);
        assert_eq!(coverage(&spans, "missing"), 0.0);
    }

    #[test]
    fn recorder_links_parents_and_exports_chrome_json() {
        let rec = Recorder::new();
        rec.span("outer", 0, 7, |outer| rec.span("inner", outer, 7, |_| ()));
        let spans = rec.into_spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"op\":\"7\""), "{json}");
    }
}
