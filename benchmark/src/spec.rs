//! The benchmark definition (`BENCHMARK.json`, compiled in so the metric
//! names, units, directions and bounds have one source) and the rows every
//! workload reports against it.

use crate::json::{self, Json};

/// `BENCHMARK.json` at the repository root.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening of the median as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Spec {
        parse_spec(DEFINITION).expect("BENCHMARK.json is well-formed")
    }
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        let list = doc.get(key).and_then(Json::as_arr).ok_or(format!("missing {key}"))?;
        list.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                Ok(MetricDef {
                    name: field("name").ok_or("metric without a name")?,
                    unit: field("unit").ok_or("metric without a unit")?,
                    lower_is_better: field("better").as_deref() == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("workload without a name")?;
    Ok(Spec {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing run_seconds")?
            as u64,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// What a user of either path sees. Latency is that of a whole grid
/// (configuration to CSV) or of a served forecast; throughput counts grid
/// cells or replies.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub throughput_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
}

impl EndToEnd {
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("peak_rss_mb", self.peak_rss_mb),
            ("throughput_per_s", self.throughput_per_s),
            ("latency_p50_us", self.latency_p50_us),
            ("latency_p99_us", self.latency_p99_us),
        ]
    }
}

/// Per-layer numbers from a traced run. A layer a workload never calls
/// reports 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub scheduler_p50_us: f64,
    pub scheduler_p99_us: f64,
    pub scheduler_wait_p50_us: f64,
    pub batch_occupancy: f64,
    pub wire_p50_us: f64,
    pub tcp_residual_p50_us: f64,
    pub registry_get_p50_us: f64,
    pub registry_get_p99_us: f64,
    pub registry_miss_ratio: f64,
    pub registry_evictions: f64,
    pub window_p50_us: f64,
    pub window_p99_us: f64,
    pub append_p50_us: f64,
    pub append_p99_us: f64,
    pub compress_source_p50_us: f64,
    pub compress_source_p99_us: f64,
    pub predict_batch_p50_us: f64,
    pub fit_s: f64,
    pub fit_calls: f64,
    pub predict_batch_s: f64,
    pub predict_windows: f64,
    pub score_s: f64,
    pub transform_s: f64,
    pub transform_calls: f64,
    pub transform_hit_ratio: f64,
    pub generate_s: f64,
    pub engine_idle_share: f64,
    pub task_max_s: f64,
    pub coverage: f64,
    pub overhead: f64,
}

impl Layers {
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("serve.scheduler_p50_us", self.scheduler_p50_us),
            ("serve.scheduler_p99_us", self.scheduler_p99_us),
            ("serve.scheduler_wait_p50_us", self.scheduler_wait_p50_us),
            ("serve.batch_occupancy", self.batch_occupancy),
            ("serve.wire_p50_us", self.wire_p50_us),
            ("serve.tcp_residual_p50_us", self.tcp_residual_p50_us),
            ("serve.registry_get_p50_us", self.registry_get_p50_us),
            ("serve.registry_get_p99_us", self.registry_get_p99_us),
            ("serve.registry_miss_ratio", self.registry_miss_ratio),
            ("serve.registry_evictions", self.registry_evictions),
            ("store.window_p50_us", self.window_p50_us),
            ("store.window_p99_us", self.window_p99_us),
            ("store.append_p50_us", self.append_p50_us),
            ("store.append_p99_us", self.append_p99_us),
            ("compression.compress_source_p50_us", self.compress_source_p50_us),
            ("compression.compress_source_p99_us", self.compress_source_p99_us),
            ("forecast.predict_batch_p50_us", self.predict_batch_p50_us),
            ("evalcore.fit_s", self.fit_s),
            ("evalcore.fit_calls", self.fit_calls),
            ("forecast.predict_batch_s", self.predict_batch_s),
            ("forecast.predict_windows", self.predict_windows),
            ("evalcore.score_s", self.score_s),
            ("evalcore.transform_s", self.transform_s),
            ("evalcore.transform_calls", self.transform_calls),
            ("evalcore.transform_hit_ratio", self.transform_hit_ratio),
            ("tsdata.generate_s", self.generate_s),
            ("evalcore.engine_idle_share", self.engine_idle_share),
            ("evalcore.task_max_s", self.task_max_s),
            ("trace.coverage", self.coverage),
            ("trace.overhead", self.overhead),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric or workload name is in the benchmark's alphabet:
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    fn names(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name.as_str()).collect()
    }

    #[test]
    fn every_printed_name_is_listed_in_the_definition() {
        let spec = Spec::load();
        let e2e: Vec<&str> = EndToEnd::default().rows().iter().map(|r| r.0).collect();
        let layers: Vec<&str> = Layers::default().rows().iter().map(|r| r.0).collect();
        assert_eq!(e2e, names(&spec.end_to_end));
        assert_eq!(layers, names(&spec.per_layer));
        assert_eq!(spec.workloads, ["grid-cold", "grid-compress", "serve-hot", "serve-mixed"]);
    }

    #[test]
    fn names_use_the_benchmark_alphabet() {
        let spec = Spec::load();
        let all = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(names(&spec.end_to_end))
            .chain(names(&spec.per_layer));
        for name in all {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("p99 latency") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn end_to_end_bounds_are_in_range() {
        let spec = Spec::load();
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the widest bound");
    }
}
