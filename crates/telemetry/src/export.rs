//! Exporters: Prometheus text format and Chrome trace-event JSON.
//!
//! Both are pure functions over snapshots ([`MetricSnapshot`],
//! [`SpanRecord`]) so they are trivially testable and never hold any
//! telemetry lock while formatting.

use crate::metrics::{MetricSnapshot, MetricValue};
use crate::span::SpanRecord;

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`).
fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` (empty string for no labels), with an optional
/// extra label appended (used for histogram `le`).
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", prom_escape(v)));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", prom_escape(v)));
    }
    out.push('}');
    out
}

/// Formats an `f64` the way Prometheus expects (`+Inf`/`-Inf`/`NaN`
/// spelled out).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders metric snapshots in the Prometheus text exposition format:
/// one `# TYPE` line per metric name, counters/gauges as single samples,
/// histograms as cumulative `_bucket{le=...}` samples plus `_sum` and
/// `_count`. Snapshots arrive sorted by name, so samples of one metric
/// are contiguous as the format requires.
pub fn prometheus(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in snapshots {
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, prom_labels(&s.labels, None)));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{}{} {}\n", s.name, prom_labels(&s.labels, None), {
                    prom_f64(*v)
                }));
            }
            MetricValue::Histogram { bounds, counts, count, sum } => {
                let mut cumulative = 0u64;
                for (i, c) in counts.iter().enumerate() {
                    cumulative += c;
                    let le = bounds.get(i).map_or("+Inf".to_string(), |b| prom_f64(*b));
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        s.name,
                        prom_labels(&s.labels, Some(("le", &le)))
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    prom_labels(&s.labels, None),
                    prom_f64(*sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {count}\n",
                    s.name,
                    prom_labels(&s.labels, None)
                ));
            }
        }
    }
    out
}

/// Escapes a string for embedding in JSON.
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_labels_object(labels: &[(String, String)]) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders span records as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable directly in
/// `about:tracing` and Perfetto. Every span becomes one complete
/// (`"ph":"X"`) event; labels ride along in `args`, and nesting falls out
/// of per-thread timestamps exactly as the trace viewer expects.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut events = Vec::with_capacity(records.len());
    for r in records {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{}}}",
            json_escape(r.name),
            json_escape(r.name.split('.').next().unwrap_or("span")),
            r.start_us,
            r.dur_us,
            r.tid,
            json_labels_object(&r.labels)
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshots() -> Vec<MetricSnapshot> {
        let r = MetricsRegistry::default();
        r.counter_add("tasks_total", &[("status", "ok")], 7);
        r.counter_add("tasks_total", &[("status", "failed")], 1);
        r.gauge_set("loss", &[("model", "DLinear")], 0.125);
        r.observe_with("lat_seconds", &[], &[0.1, 1.0], 0.5);
        r.observe_with("lat_seconds", &[], &[0.1, 1.0], 0.05);
        r.snapshot()
    }

    fn sample_records() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 1,
                parent: 0,
                tid: 1,
                name: "engine.task",
                labels: vec![("dataset".into(), "ETTm1".into())],
                start_us: 10,
                dur_us: 500,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                tid: 1,
                name: "model.fit",
                labels: vec![],
                start_us: 20,
                dur_us: 400,
            },
        ]
    }

    #[test]
    fn prometheus_renders_types_and_cumulative_buckets() {
        let text = prometheus(&sample_snapshots());
        assert!(text.contains("# TYPE tasks_total counter"), "{text}");
        assert!(text.contains("tasks_total{status=\"ok\"} 7"), "{text}");
        assert!(text.contains("# TYPE loss gauge"), "{text}");
        assert!(text.contains("loss{model=\"DLinear\"} 0.125"), "{text}");
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        // 0.05 <= 0.1, 0.5 <= 1.0 → cumulative 1, 2, 2.
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_count 2"), "{text}");
        // Exactly one TYPE line per metric name.
        assert_eq!(text.matches("# TYPE tasks_total ").count(), 1);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = MetricsRegistry::default();
        r.counter_add("c", &[("path", "a\\b\"c\nd")], 1);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("c{path=\"a\\\\b\\\"c\\nd\"} 1"), "{text}");
    }

    #[test]
    fn chrome_trace_is_complete_events() {
        let json = chrome_trace(&sample_records());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"engine.task\""), "{json}");
        assert!(json.contains("\"dataset\":\"ETTm1\""), "{json}");
        assert!(json.contains("\"ts\":10,\"dur\":500"), "{json}");
    }

    #[test]
    fn empty_inputs_render_valid_documents() {
        assert_eq!(prometheus(&[]), "");
        let trace = chrome_trace(&[]);
        assert!(trace.contains("\"traceEvents\":[]"));
    }
}
