//! The metrics registry: counters, gauges, and fixed-bucket histograms,
//! addressable by metric name plus a (possibly empty) label set.
//!
//! Instruments are created lazily on first touch and live for the life of
//! the registry. The hot path (`counter_add`, `gauge_set`, `observe`) is
//! one read-locked `HashMap` probe plus an atomic update once the
//! instrument exists; the write lock is taken only for the first touch of
//! a new `(name, labels)` pair. All values are plain atomics, so
//! instruments can be hammered from every worker thread without
//! coordination beyond cache-line traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One label pair, owned. Labels are kept sorted by key so that the same
/// logical label set always addresses the same instrument regardless of
/// the order a call site lists them in.
pub(crate) type Label = (String, String);

/// Builds the canonical owned label vector (sorted by key) from the
/// borrowed pairs call sites pass.
fn own_labels(labels: &[(&str, &str)]) -> Vec<Label> {
    let mut owned: Vec<Label> =
        labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    owned.sort();
    owned
}

/// The canonical registry key for `(name, labels)`: the Prometheus-style
/// rendering `name{k="v",...}` with labels pre-sorted. One `String` per
/// *first* touch; steady-state lookups build it on the stack only to probe
/// the map.
fn storage_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

/// Histogram bucket upper bounds (seconds) used by [`MetricsRegistry::observe`]:
/// exponential-ish from 1µs to 60s. An implicit `+Inf` bucket catches the
/// rest. Fixed bounds keep the histogram allocation-free after creation
/// and make every exported histogram comparable.
const LATENCY_BUCKETS: [f64; 12] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 1.0, 2.5, 10.0, 60.0];

/// Atomic f64 stored as its bit pattern.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: per-bucket counts plus total count and sum.
#[derive(Debug)]
struct Histogram {
    /// Upper bounds, strictly increasing. The final implicit bucket is
    /// `+Inf`; `buckets.len() == bounds.len() + 1`.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicF64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::default(),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
    }
}

/// The value variants an instrument can hold.
#[derive(Debug)]
enum Instrument {
    Counter(AtomicU64),
    Gauge(AtomicF64),
    Histogram(Histogram),
}

/// One registered instrument: identity plus live value.
#[derive(Debug)]
struct Metric {
    name: String,
    labels: Vec<Label>,
    value: Instrument,
}

/// A point-in-time copy of one instrument, as handed to exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (Prometheus-compatible: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<Label>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// Snapshot value variants.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-written value.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram {
        /// Bucket upper bounds (the final `+Inf` bucket is implicit).
        bounds: Vec<f64>,
        /// Per-bucket counts, `bounds.len() + 1` entries (last = `+Inf`).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of all observed values.
        sum: f64,
    },
}

impl MetricValue {
    /// The counter value, when this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// `(count, sum)` of a histogram, when this is one.
    pub fn as_histogram_totals(&self) -> Option<(u64, f64)> {
        match self {
            MetricValue::Histogram { count, sum, .. } => Some((*count, *sum)),
            _ => None,
        }
    }
}

/// The thread-safe instrument registry. Every method takes `&self`; one
/// registry is shared by all threads of a run (usually via
/// [`crate::global`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<HashMap<String, Arc<Metric>>>,
}

impl MetricsRegistry {
    /// Fetches the instrument for `(name, labels)`, creating it with
    /// `make` on first touch. A type clash (an existing instrument of a
    /// different variant) returns `None`; callers treat that as a no-op
    /// rather than corrupting a stranger's instrument. Clashes are a
    /// naming bug, so debug builds assert.
    fn instrument<F>(&self, name: &str, labels: &[(&str, &str)], make: F) -> Option<Arc<Metric>>
    where
        F: FnOnce() -> Instrument,
    {
        let key = storage_key(name, labels);
        if let Some(m) = self.metrics.read().expect("metrics lock").get(&key) {
            return Some(m.clone());
        }
        let mut map = self.metrics.write().expect("metrics lock");
        Some(
            map.entry(key)
                .or_insert_with(|| {
                    Arc::new(Metric {
                        name: name.to_string(),
                        labels: own_labels(labels),
                        value: make(),
                    })
                })
                .clone(),
        )
    }

    /// Adds `delta` to the counter `(name, labels)`.
    pub(crate) fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let Some(m) = self.instrument(name, labels, || Instrument::Counter(AtomicU64::new(0)))
        else {
            return;
        };
        match &m.value {
            Instrument::Counter(c) => {
                c.fetch_add(delta, Ordering::Relaxed);
            }
            _ => debug_assert!(false, "{name} is not a counter"),
        }
    }

    /// Sets the gauge `(name, labels)` to `value` (last write wins).
    pub(crate) fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let Some(m) = self.instrument(name, labels, || Instrument::Gauge(AtomicF64::default()))
        else {
            return;
        };
        match &m.value {
            Instrument::Gauge(g) => g.set(value),
            _ => debug_assert!(false, "{name} is not a gauge"),
        }
    }

    /// Records `value` into the histogram `(name, labels)` using the
    /// default [`LATENCY_BUCKETS`].
    pub(crate) fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_with(name, labels, &LATENCY_BUCKETS, value);
    }

    /// Records `value` into a histogram with caller-chosen bucket bounds.
    /// The bounds of the *first* touch win; later calls with different
    /// bounds record into the existing buckets.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
        let Some(m) =
            self.instrument(name, labels, || Instrument::Histogram(Histogram::new(bounds)))
        else {
            return;
        };
        match &m.value {
            Instrument::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "{name} is not a histogram"),
        }
    }

    /// A point-in-time copy of every instrument, sorted by name then
    /// labels so exports are deterministic.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.metrics.read().expect("metrics lock");
        let mut out: Vec<MetricSnapshot> = map
            .values()
            .map(|m| MetricSnapshot {
                name: m.name.clone(),
                labels: m.labels.clone(),
                value: match &m.value {
                    Instrument::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds.clone(),
                        counts: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.get(),
                    },
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        out
    }

    /// Sums every counter named `name` across all of its label sets.
    /// Non-counter instruments with that name contribute nothing.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.snapshot().iter().filter(|s| s.name == name).filter_map(|s| s.value.as_counter()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = MetricsRegistry::default();
        r.counter_add("tasks_total", &[("status", "ok")], 2);
        r.counter_add("tasks_total", &[("status", "ok")], 3);
        r.counter_add("tasks_total", &[("status", "failed")], 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].labels, vec![("status".to_string(), "failed".to_string())]);
        assert_eq!(snap[0].value, MetricValue::Counter(1));
        assert_eq!(snap[1].value, MetricValue::Counter(5));
        assert_eq!(r.counter_total("tasks_total"), 6);
    }

    #[test]
    fn label_order_does_not_split_instruments() {
        let r = MetricsRegistry::default();
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.counter_total("c"), 2);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = MetricsRegistry::default();
        r.gauge_set("loss", &[], 0.5);
        r.gauge_set("loss", &[], 0.25);
        assert_eq!(r.snapshot()[0].value, MetricValue::Gauge(0.25));
    }

    #[test]
    fn histogram_counts_are_per_bucket() {
        let r = MetricsRegistry::default();
        for v in [0.5, 1.5, 2.5, 99.0] {
            r.observe_with("h", &[], &[1.0, 2.0, 4.0], v);
        }
        let MetricValue::Histogram { bounds, counts, count, sum } = r.snapshot()[0].value.clone()
        else {
            panic!("not a histogram");
        };
        assert_eq!(bounds, vec![1.0, 2.0, 4.0]);
        // Per-bucket (non-cumulative) counts: <=1, <=2, <=4, +Inf.
        assert_eq!(counts, vec![1, 1, 1, 1]);
        assert_eq!(count, 4);
        assert!((sum - 103.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_value_lands_in_its_bound_bucket() {
        let r = MetricsRegistry::default();
        // Prometheus `le` semantics: a value equal to a bound belongs to
        // that bound's bucket.
        r.observe_with("h", &[], &[1.0, 2.0], 1.0);
        let MetricValue::Histogram { counts, .. } = r.snapshot()[0].value.clone() else {
            panic!("not a histogram");
        };
        assert_eq!(counts, vec![1, 0, 0]);
    }

    #[test]
    fn type_clash_is_a_noop() {
        let r = MetricsRegistry::default();
        r.counter_add("x", &[], 1);
        // In release builds a clash must not panic or corrupt; the write
        // is simply dropped. (Debug builds assert on the naming bug.)
        if cfg!(not(debug_assertions)) {
            r.gauge_set("x", &[], 3.0);
        }
        assert_eq!(r.counter_total("x"), 1);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let r = Arc::new(MetricsRegistry::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("n", &[("t", "x")], 1);
                        r.observe("lat", &[], 0.001);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter_total("n"), 8000);
        let snap = r.snapshot();
        let lat = snap.iter().find(|s| s.name == "lat").unwrap();
        assert_eq!(lat.value.as_histogram_totals().unwrap().0, 8000);
    }
}
