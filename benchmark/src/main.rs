//! `benchmark` — measures the repository's two end-to-end paths, a grid
//! run from configuration to CSV and a served request from TCP bytes in to
//! bytes out, and the layers under them. See `README.md` in this
//! directory for the workloads and metric definitions.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds N] [--trace 0|1] [--trace-out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! The serving workloads start the server under test as `benchmark
//! serve-child`, a process of this same program.
//!
//! A run prints two JSON lines: a detail line naming the workload, its
//! checks and sample counts, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` carrying every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace
//! 1`). It exits non-zero when an output check fails.

mod compare;
mod grid;
mod json;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use spec::{EndToEnd, Layers, MetricDef, Spec};

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted in the measured phases: grid cells, or
    /// requests after warm-up.
    pub attempted: u64,
    /// Failed cells, or requests answered with an error, an overload
    /// rejection or a transport failure.
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    /// Whether the run delivered the load it was meant to. An invalid run
    /// can still be correct; `compare` leaves it out.
    pub valid: bool,
    pub e2e: EndToEnd,
    /// Present after a traced run.
    pub layers: Option<Layers>,
    /// Extra detail for the detail line, as rendered JSON values.
    pub info: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: benchmark --workload W --seed S [--seconds N] [--trace 0|1] \
                     [--trace-out FILE]\n       benchmark compare A.jsonl B.jsonl";

fn parse_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec.workloads.contains(&parsed.workload) {
        return Err(format!("--workload must be one of {}", spec.workloads.join(", ")));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..], &spec),
        Some("serve-child") => return serve::child_main(&args[1..]),
        _ => {}
    }
    let args = match parse_args(&args, &spec) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Both shipped binaries record telemetry; so does every measured run.
    telemetry::set_enabled(true);
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "grid-cold" => Ok(grid::run(grid::Kind::Cold, seed, secs, traced)),
        "grid-compress" => Ok(grid::run(grid::Kind::Compress, seed, secs, traced)),
        "serve-hot" => serve::run(serve::Kind::Hot, seed, secs, traced),
        "serve-mixed" => serve::run(serve::Kind::Mixed, seed, secs, traced),
        other => Err(format!("workload {other} is listed but not implemented")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("benchmark: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace::chrome_json(&outcome.spans)) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let (rows, defs) = match (&outcome.layers, traced) {
        (Some(layers), true) => (layers.rows(), &spec.per_layer),
        _ => (outcome.e2e.rows(), &spec.end_to_end),
    };
    let metrics = render_metrics(&rows, defs);
    let correct = outcome.checks.iter().all(|(_, ok)| *ok);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checks: Vec<String> =
        outcome.checks.iter().map(|(k, ok)| format!("{}:{ok}", json::quote(k))).collect();
    let info: Vec<String> =
        outcome.info.iter().map(|(k, v)| format!("{}:{v}", json::quote(k))).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"valid\":{},\"checks\":{{{}}},\"info\":{{{}}},\"metrics\":{metrics}}}",
        json::quote(&args.workload),
        seed,
        secs,
        u8::from(traced),
        outcome.valid,
        checks.join(","),
        info.join(","),
    );
    if !outcome.valid {
        eprintln!(
            "benchmark: the run did not deliver its load on schedule; its numbers are invalid"
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for (name, ok) in &outcome.checks {
            if !ok {
                eprintln!("benchmark: check failed: {name}");
            }
        }
        ExitCode::FAILURE
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in definition order. The rows
/// and the definition list the same names; a difference is a bug here.
fn render_metrics(rows: &[(&'static str, f64)], defs: &[MetricDef]) -> String {
    assert_eq!(
        rows.iter().map(|r| r.0).collect::<Vec<_>>(),
        defs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
        "metric rows must match BENCHMARK.json"
    );
    let fields: Vec<String> = rows
        .iter()
        .zip(defs)
        .map(|((name, v), d)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                json::num(*v),
                json::quote(&d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let spec = Spec::load();
        let a = parse_args(
            &args(&["--workload", "serve-hot", "--seed", "7", "--seconds", "3", "--trace", "1"]),
            &spec,
        )
        .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve-hot", 7, 3, true));
        assert!(parse_args(&args(&["--workload", "nope"]), &spec).is_err());
        assert!(parse_args(&args(&["--workload", "grid-cold", "--trace", "2"]), &spec).is_err());
        assert!(parse_args(&args(&["--workload", "grid-cold", "--seconds", "0"]), &spec).is_err());
        assert!(parse_args(&args(&["--workload", "grid-cold", "--seed"]), &spec).is_err());
    }

    #[test]
    fn result_metrics_carry_every_defined_name_and_unit() {
        let spec = Spec::load();
        let text = render_metrics(&EndToEnd::default().rows(), &spec.end_to_end);
        let doc = json::parse(&text).unwrap();
        for d in &spec.end_to_end {
            let m = doc.get(&d.name).unwrap();
            assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(d.unit.as_str()));
            assert_eq!(m.get("value").and_then(json::Json::as_f64), Some(0.0));
        }
        let layers = render_metrics(&Layers::default().rows(), &spec.per_layer);
        assert_eq!(json::parse(&layers).unwrap().as_obj().unwrap().len(), spec.per_layer.len());
    }
}
