//! # telemetry — zero-dependency observability for the evaluation grid
//!
//! Three pieces, assembled from `std` only (no external crates, so this
//! sits below every other workspace crate without dependency cycles):
//!
//! * a thread-safe **metrics registry** ([`metrics::MetricsRegistry`]) —
//!   counters, gauges, and fixed-bucket histograms addressed by
//!   `name + labels`;
//! * **structured spans** ([`mod@span`]) — RAII timers on monotonic clocks
//!   with per-thread parent linkage, buffered per thread and drained into
//!   a global sink;
//! * **exporters** ([`export`]) — Prometheus text exposition and Chrome
//!   trace-event JSON (opens directly in `about:tracing` / Perfetto).
//!
//! ## The global handle and the off switch
//!
//! Instrumented code calls the free functions here ([`counter_add`],
//! [`gauge_set`], [`observe`], [`fn@span`], …) against one process-global
//! [`Telemetry`] instance. Telemetry is **disabled by default**: every
//! free function starts with a single relaxed atomic load and returns
//! immediately when disabled, so an un-instrumented-feeling binary pays
//! one predictable branch per event and allocates nothing. Enabling
//! ([`set_enabled`]) flips that flag; the `repro` binary does so at
//! startup so its `--metrics` / `--trace` flags have data to export.
//!
//! ```
//! telemetry::set_enabled(true);
//! {
//!     let _span = telemetry::span("doctest.work", &[("kind", "demo")]);
//!     telemetry::counter_add("doctest_events_total", &[], 1);
//! }
//! let text = telemetry::export::prometheus(&telemetry::global().metrics().snapshot());
//! assert!(text.contains("doctest_events_total"));
//! ```

pub mod export;
pub mod metrics;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use metrics::MetricSnapshot;
pub use span::{slowest, Span, SpanRecord};

use metrics::MetricsRegistry;
use span::SpanSink;

/// The process-global enabled flag. Relaxed ordering is deliberate:
/// enabling mid-run only needs to become visible eventually, and the
/// disabled fast path must cost exactly one uncontended load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording. This is the whole cost of
/// every instrumentation point when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Instruments and spans created
/// while enabled stay in the global state either way; disabling only
/// stops new events.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The global telemetry state: one registry plus one span sink.
#[derive(Debug, Default)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    spans: SpanSink,
}

impl Telemetry {
    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span sink.
    pub fn spans(&self) -> &SpanSink {
        &self.spans
    }
}

/// The process-global telemetry instance. Created on first touch; the
/// span-sink epoch (trace time zero) is fixed at that moment.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::default)
}

/// Adds `delta` to the global counter `(name, labels)`. No-op while
/// disabled.
#[inline]
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        global().metrics().counter_add(name, labels, delta);
    }
}

/// Sets the global gauge `(name, labels)`. No-op while disabled.
#[inline]
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        global().metrics().gauge_set(name, labels, value);
    }
}

/// Records `value` into the global histogram `(name, labels)` with the
/// default latency buckets. No-op while disabled.
#[inline]
pub fn observe(name: &str, labels: &[(&str, &str)], value: f64) {
    if enabled() {
        global().metrics().observe(name, labels, value);
    }
}

/// Opens a span against the global sink, or an inert guard while
/// disabled. The enabled check happens at creation: a span straddling an
/// enable/disable flip keeps the behaviour it started with.
#[inline]
pub fn span(name: &'static str, labels: &[(&str, &str)]) -> Span {
    if enabled() {
        span::start_span(name, labels)
    } else {
        Span::inert()
    }
}

/// Seconds represented by a duration, the unit every latency histogram
/// and the span exporters use.
#[inline]
pub fn secs(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process and toggle the one enabled
    // flag, so they serialize on a lock and use unique metric/span names.
    static FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        FLAG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_events_record_nothing() {
        let _serial = flag_lock();
        set_enabled(false);
        counter_add("lib_disabled_total", &[], 1);
        observe("lib_disabled_seconds", &[], 0.1);
        drop(span("lib.disabled", &[]));
        assert!(global().spans().snapshot().iter().all(|r| r.name != "lib.disabled"));
        let snap = global().metrics().snapshot();
        assert!(snap.iter().all(|m| m.name != "lib_disabled_total"));
        assert!(snap.iter().all(|m| m.name != "lib_disabled_seconds"));
    }

    #[test]
    fn enabled_events_register_and_spans_drain() {
        let _serial = flag_lock();
        set_enabled(true);
        counter_add("lib_enabled_total", &[("k", "v")], 2);
        {
            let _outer = span("lib.outer", &[]);
            let _inner = span("lib.inner", &[]);
        }
        set_enabled(false);
        assert_eq!(global().metrics().counter_total("lib_enabled_total"), 2);
        let records = global().spans().snapshot();
        let inner = records.iter().find(|r| r.name == "lib.inner").expect("inner span drained");
        let outer = records.iter().find(|r| r.name == "lib.outer").expect("outer span drained");
        assert_eq!(inner.parent, outer.id, "parent linkage follows the per-thread stack");
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn spans_from_short_lived_threads_survive() {
        let _serial = flag_lock();
        set_enabled(true);
        std::thread::spawn(|| {
            let _s = span("lib.worker_thread", &[]);
        })
        .join()
        .unwrap();
        set_enabled(false);
        let records = global().spans().snapshot();
        assert!(
            records.iter().any(|r| r.name == "lib.worker_thread"),
            "thread-exit drain must deliver buffered spans"
        );
    }
}
