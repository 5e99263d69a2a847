//! `benchmark compare A.jsonl B.jsonl`: judges B's end-to-end numbers
//! against A's with the directions and bounds of `BENCHMARK.json`.
//!
//! Each input holds the detail lines of several untraced runs (the JSON
//! line that names the workload; other lines are skipped). Per workload
//! and metric it prints each side's median and quartiles and a verdict:
//!
//! * `unresolved` — either side's spread (quartile distance over median)
//!   exceeds the bound, unless every B run beats every A run (`better`);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median beats A's by more than A's own spread and B wins
//!   at least nine of every ten runs paired in order;
//! * `within` — anything else;
//! * `failed` — a run of the workload, on either side, failed an output
//!   check, so its numbers are not compared;
//! * `missing` — either side has no valid run of the workload with the
//!   metric.
//!
//! A run whose detail line says `"valid": false` did not deliver its load
//! (the open-loop generator ran late), so it is left out and counted.
//!
//! Only `within` and `better` leave the exit code at 0.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Within,
    Worse,
    Better,
    Unresolved,
    Failed,
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Failed => "failed",
            Verdict::Missing => "missing",
        }
    }
}

/// `x` as a share of `base`, treating 0 of 0 as 0.
fn share(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        if x == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        x / base.abs()
    }
}

/// Quartile distance over median.
fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    share(q3 - q1, median(values))
}

fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Orient every value so that larger is worse.
    let worse = |x: f64| if lower_is_better { x } else { -x };
    let beats = |x: f64, y: f64| worse(x) < worse(y);
    let (ma, mb) = (median(a), median(b));
    let change = share(worse(mb) - worse(ma), ma);
    let spread_a = spread(a);
    if spread_a.max(spread(b)) > bound {
        let all_beat = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all_beat { Verdict::Better } else { Verdict::Unresolved };
    }
    if change > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    if -change > spread_a && pairs > 0 && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One side's untraced runs.
#[derive(Debug, Default)]
struct Runs {
    /// End-to-end values of the runs whose checks all passed, by workload
    /// and metric.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// Runs per workload that failed an output check.
    failed: BTreeMap<String, usize>,
    /// Runs per workload marked invalid, left out of `values`.
    invalid: BTreeMap<String, usize>,
}

/// Whether a detail line names at least one check and every check passed.
/// Every workload runs checks, so a line with none did not finish them.
fn checks_passed(doc: &Json) -> bool {
    doc.get("checks").and_then(Json::as_obj).is_some_and(|checks| {
        !checks.is_empty() && checks.values().all(|c| matches!(c, Json::Bool(true)))
    })
}

/// Every untraced run in a JSONL file.
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(parse_runs(&text))
}

/// Every untraced run in JSONL text; lines that are not detail lines are
/// skipped.
fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::default();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let Ok(doc) = json::parse(line) else { continue };
        let (Some(workload), Some(metrics)) =
            (doc.get("workload").and_then(Json::as_str), doc.get("metrics").and_then(Json::as_obj))
        else {
            continue;
        };
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        if !checks_passed(&doc) {
            *runs.failed.entry(workload.to_string()).or_default() += 1;
            continue;
        }
        if matches!(doc.get("valid"), Some(Json::Bool(false))) {
            *runs.invalid.entry(workload.to_string()).or_default() += 1;
            continue;
        }
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.values.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    runs
}

pub fn main(args: &[String], spec: &Spec) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<17} {:>14} {:>25} {:>14} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "change",
        "bound"
    );
    let rows = rows(&a, &b, spec);
    let side = |vals: Option<&[f64]>| match vals {
        Some(vals) => {
            let [q1, _, q3] = quartiles(vals);
            (format!("{:.6e}", median(vals)), format!("[{q1:.4e}, {q3:.4e}] {}", vals.len()))
        }
        None => ("-".into(), "-".into()),
    };
    for row in &rows {
        let (va, vb) = (row.a, row.b);
        let change = match (va, vb) {
            (Some(va), Some(vb)) => {
                let (ma, mb) = (median(va), median(vb));
                format!("{:+.1}%", 100.0 * share(mb - ma, ma))
            }
            _ => "-".into(),
        };
        let ((ma, qa), (mb, qb)) = (side(va), side(vb));
        println!(
            "{:<14} {:<17} {ma:>14} {qa:>25} {mb:>14} {qb:>25} {change:>8} {:>5.0}%  {}",
            row.workload,
            row.metric.name,
            100.0 * row.metric.bound.unwrap_or(0.0),
            row.verdict.name()
        );
    }
    for (side, runs) in [("A", &a), ("B", &b)] {
        for (workload, n) in &runs.failed {
            println!("{side}: {n} run(s) of {workload} failed an output check");
        }
        for (workload, n) in &runs.invalid {
            println!("{side}: {n} invalid run(s) of {workload} left out");
        }
    }
    if rows.iter().all(|r| matches!(r.verdict, Verdict::Within | Verdict::Better)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Row<'s> {
    workload: &'s str,
    metric: &'s MetricDef,
    a: Option<&'s [f64]>,
    b: Option<&'s [f64]>,
    verdict: Verdict,
}

/// One row per workload and end-to-end metric of the definition.
fn rows<'s>(a: &'s Runs, b: &'s Runs, spec: &'s Spec) -> Vec<Row<'s>> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        let failed = a.failed.contains_key(workload) || b.failed.contains_key(workload);
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (va, vb) =
                (a.values.get(&key).map(Vec::as_slice), b.values.get(&key).map(Vec::as_slice));
            let verdict = match (failed, va, vb) {
                (true, _, _) => Verdict::Failed,
                (false, Some(va), Some(vb)) => {
                    verdict(va, vb, metric.lower_is_better, metric.bound.unwrap_or(0.0))
                }
                _ => Verdict::Missing,
            };
            out.push(Row { workload, metric, a: va, b: vb, verdict });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(k: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * k).collect()
    }

    #[test]
    fn same_numbers_are_within() {
        assert_eq!(verdict(&STEADY, &STEADY, true, 0.1), Verdict::Within);
        assert_eq!(verdict(&STEADY, &scaled(1.05), true, 0.1), Verdict::Within);
    }

    #[test]
    fn worsening_beyond_the_bound_is_worse_in_either_direction() {
        assert_eq!(verdict(&STEADY, &scaled(1.2), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&STEADY, &scaled(0.8), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn a_clear_gain_is_better() {
        assert_eq!(verdict(&STEADY, &scaled(0.9), true, 0.1), Verdict::Better);
        assert_eq!(verdict(&STEADY, &scaled(1.1), false, 0.1), Verdict::Better);
        // A gain smaller than A's own spread is noise.
        let noisy = [90.0, 95.0, 100.0, 105.0, 110.0];
        assert_eq!(verdict(&noisy, &[97.0, 97.0, 97.0, 97.0, 97.0], true, 0.2), Verdict::Within);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_wins() {
        let wide = [50.0, 80.0, 100.0, 120.0, 150.0];
        assert_eq!(verdict(&wide, &STEADY, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&STEADY, &wide, true, 0.1), Verdict::Unresolved);
        let lower = [10.0, 15.0, 20.0, 25.0, 30.0];
        assert_eq!(verdict(&STEADY, &lower, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&STEADY, &lower, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn zero_baselines_do_not_divide_by_zero() {
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], true, 0.1), Verdict::Within);
        assert_eq!(verdict(&[0.0; 3], &[1.0; 3], true, 0.1), Verdict::Worse);
    }

    /// A detail line of one run with every end-to-end metric at `v`.
    fn detail(workload: &str, trace: u8, checks: &str, v: f64) -> String {
        let metrics: Vec<String> = Spec::load()
            .end_to_end
            .iter()
            .map(|m| format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, m.name, m.unit))
            .collect();
        format!(
            r#"{{"workload":"{workload}","trace":{trace},"checks":{{{checks}}},"metrics":{{{}}}}}"#,
            metrics.join(",")
        )
    }

    fn runs_of(lines: &[String]) -> Runs {
        parse_runs(&lines.join("\n"))
    }

    const OK: &str = r#""cells_complete":true"#;

    #[test]
    fn loads_only_untraced_detail_lines() {
        let runs = runs_of(&[
            detail("serve-hot", 0, OK, 1.0),
            detail("serve-hot", 1, OK, 9.0),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#.to_string(),
            "compiler noise".to_string(),
            detail("serve-hot", 0, OK, 2.0),
        ]);
        assert_eq!(runs.values.len(), Spec::load().end_to_end.len());
        assert_eq!(runs.values[&("serve-hot".to_string(), "setup_s".to_string())], vec![1.0, 2.0]);
        assert!(runs.failed.is_empty());
    }

    #[test]
    fn invalid_runs_are_left_out_and_counted() {
        let late = detail("serve-mixed", 0, OK, 9.0).replacen('{', r#"{"valid":false,"#, 1);
        let on_time = detail("serve-mixed", 0, OK, 1.0).replacen('{', r#"{"valid":true,"#, 1);
        let runs = runs_of(&[late, on_time]);
        assert_eq!(runs.values[&("serve-mixed".to_string(), "setup_s".to_string())], vec![1.0]);
        assert_eq!(runs.invalid.get("serve-mixed"), Some(&1));
        assert!(runs.failed.is_empty());
    }

    #[test]
    fn a_run_that_failed_a_check_fails_its_workload() {
        let spec = Spec::load();
        let a = runs_of(&spec.workloads.iter().map(|w| detail(w, 0, OK, 1.0)).collect::<Vec<_>>());
        let mut b_lines: Vec<String> =
            spec.workloads.iter().map(|w| detail(w, 0, OK, 1.0)).collect();
        b_lines.push(detail("serve-hot", 0, r#""forecasts_bitwise":false"#, 1.0));
        b_lines.push(detail("serve-mixed", 0, "", 1.0));
        let b = runs_of(&b_lines);
        assert_eq!(b.failed.get("serve-hot"), Some(&1));
        assert_eq!(b.failed.get("serve-mixed"), Some(&1), "a run with no checks is not a pass");
        for row in rows(&a, &b, &spec) {
            let expected = match row.workload {
                "serve-hot" | "serve-mixed" => Verdict::Failed,
                _ => Verdict::Within,
            };
            assert_eq!(row.verdict, expected, "{} {}", row.workload, row.metric.name);
        }
    }

    #[test]
    fn a_workload_or_metric_absent_on_either_side_is_missing() {
        let spec = Spec::load();
        let all: Vec<String> = spec.workloads.iter().map(|w| detail(w, 0, OK, 1.0)).collect();
        let a = runs_of(&all);
        // B lacks grid-cold entirely, and one serve-hot run lacks setup_s.
        let mut b_lines: Vec<String> = all[1..].to_vec();
        b_lines[1] = b_lines[1].replace(r#""setup_s""#, r#""renamed_s""#);
        let b = runs_of(&b_lines);
        for (x, y, side) in [(&a, &b, "B"), (&b, &a, "A")] {
            for row in rows(x, y, &spec) {
                let expected = match (row.workload, row.metric.name.as_str()) {
                    ("grid-cold", _) | ("serve-hot", "setup_s") => Verdict::Missing,
                    _ => Verdict::Within,
                };
                assert_eq!(row.verdict, expected, "{side} {} {}", row.workload, row.metric.name);
            }
        }
    }
}
