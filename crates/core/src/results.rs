//! Result records, aggregation and CSV emission for the evaluation grid,
//! plus the structured failure bookkeeping that lets a partial grid
//! (some tasks failed or panicked) still produce a report.

use compression::Method;
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;
use tsdata::metrics::MetricSet;

use crate::engine::TaskCoord;

/// Compression-side measurements for one `(dataset, method, ε)` cell
/// (Figures 2–3, Table 3 inputs).
#[derive(Debug, Clone, Copy)]
pub struct CompressionRecord {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Lossy method.
    pub method: Method,
    /// Relative pointwise error bound.
    pub epsilon: f64,
    /// Transformation error as NRMSE (Figure 2's TE axis).
    pub te_nrmse: f64,
    /// Transformation error as RMSE.
    pub te_rmse: f64,
    /// Compression ratio (Eq. 3, gzip-relative sizes).
    pub cr: f64,
    /// Segment count (Figure 3).
    pub segments: usize,
}

/// Forecasting-side measurements for one `(dataset, model, method, ε,
/// seed)` cell. `method = None` marks the raw baseline.
#[derive(Debug, Clone, Copy)]
pub struct ForecastRecord {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Forecasting model.
    pub model: ModelKind,
    /// Lossy method (`None` = raw baseline).
    pub method: Option<Method>,
    /// Error bound (0 for the baseline).
    pub epsilon: f64,
    /// Random seed of this run.
    pub seed: u64,
    /// Accuracy metrics (scaled units).
    pub metrics: MetricSet,
}

/// One failed or panicked grid task: the coordinate it covered plus the
/// rendered error. Collected by the engine's
/// [`GridReport`](crate::engine::GridReport) in task order.
#[derive(Debug, Clone)]
pub struct TaskFailure {
    /// Grid coordinates of the failed task.
    pub coord: TaskCoord,
    /// Rendered error (or panic message).
    pub error: String,
    /// Whether the task panicked (vs returning an error).
    pub panicked: bool,
}

/// Maximum per-coordinate lines a failure summary prints before eliding.
const SUMMARY_MAX_LINES: usize = 8;

/// Renders a failure summary — the total count (split into failed vs
/// panicked) plus the first error per coordinate — or `None` when every
/// task succeeded. Coordinates appear in task order, capped at
/// `SUMMARY_MAX_LINES` lines.
pub(crate) fn failure_summary(failures: &[TaskFailure]) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let panicked = failures.iter().filter(|f| f.panicked).count();
    let mut out = format!(
        "{} task(s) did not complete ({} failed, {panicked} panicked); \
         affected coordinates keep their remaining grid cells:",
        failures.len(),
        failures.len() - panicked,
    );
    let mut seen: Vec<String> = Vec::new();
    for f in failures {
        let coord = f.coord.to_string();
        if seen.contains(&coord) {
            continue;
        }
        if seen.len() == SUMMARY_MAX_LINES {
            out.push_str(&format!("\n  ... and {} more", failures.len() - seen.len()));
            break;
        }
        out.push_str(&format!(
            "\n  {coord}: {}{}",
            if f.panicked { "panicked: " } else { "" },
            f.error
        ));
        seen.push(coord);
    }
    Some(out)
}

/// Mean of a slice; NaN-free inputs assumed. Returns 0.0 when empty.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a slice (average of middle two for even lengths).
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Half-width of a normal-approximation 95% confidence interval.
pub(crate) fn ci95_half_width(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
    1.96 * (var / n as f64).sqrt()
}

/// Averages forecast metrics over seeds for matching keys.
pub fn average_over_seeds(records: &[ForecastRecord]) -> Vec<ForecastRecord> {
    let mut out: Vec<ForecastRecord> = Vec::new();
    let mut seen: Vec<(DatasetKind, ModelKind, Option<Method>, u64)> = Vec::new();
    for r in records {
        let eps_key = (r.epsilon * 1e6) as u64;
        let key = (r.dataset, r.model, r.method, eps_key);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let group: Vec<&ForecastRecord> = records
            .iter()
            .filter(|o| {
                o.dataset == r.dataset
                    && o.model == r.model
                    && o.method == r.method
                    && (o.epsilon * 1e6) as u64 == eps_key
            })
            .collect();
        let n = group.len() as f64;
        let metrics = MetricSet {
            r: group.iter().map(|g| g.metrics.r).sum::<f64>() / n,
            rse: group.iter().map(|g| g.metrics.rse).sum::<f64>() / n,
            rmse: group.iter().map(|g| g.metrics.rmse).sum::<f64>() / n,
            nrmse: group.iter().map(|g| g.metrics.nrmse).sum::<f64>() / n,
        };
        out.push(ForecastRecord { seed: 0, metrics, ..*r });
    }
    out
}

/// CSV serialization of compression records.
pub fn compression_csv(records: &[CompressionRecord]) -> String {
    let mut s = String::from("dataset,method,epsilon,te_nrmse,te_rmse,cr,segments\n");
    for r in records {
        s.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.dataset.name(),
            r.method.name(),
            r.epsilon,
            r.te_nrmse,
            r.te_rmse,
            r.cr,
            r.segments
        ));
    }
    s
}

/// CSV serialization of forecast records.
pub fn forecast_csv(records: &[ForecastRecord]) -> String {
    let mut s = String::from("dataset,model,method,epsilon,seed,r,rse,rmse,nrmse\n");
    for r in records {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.dataset.name(),
            r.model.name(),
            r.method.map_or("RAW", |m| m.name()),
            r.epsilon,
            r.seed,
            r.metrics.r,
            r.metrics.rse,
            r.metrics.rmse,
            r.metrics.nrmse
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64, rmse: f64) -> ForecastRecord {
        ForecastRecord {
            dataset: DatasetKind::ETTm1,
            model: ModelKind::Arima,
            method: Some(Method::Pmc),
            epsilon: 0.1,
            seed,
            metrics: MetricSet { r: 0.9, rse: 0.3, rmse, nrmse: rmse / 2.0 },
        }
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ci95_half_width(&[5.0]), 0.0);
        assert!(ci95_half_width(&[1.0, 2.0, 3.0, 4.0]) > 0.0);
    }

    #[test]
    fn seed_averaging_groups_correctly() {
        let records = vec![rec(1, 0.2), rec(2, 0.4), {
            let mut other = rec(1, 1.0);
            other.epsilon = 0.5;
            other
        }];
        let avg = average_over_seeds(&records);
        assert_eq!(avg.len(), 2);
        let g = avg.iter().find(|r| r.epsilon == 0.1).expect("group exists");
        assert!((g.metrics.rmse - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_round_shape() {
        let c = CompressionRecord {
            dataset: DatasetKind::Solar,
            method: Method::Sz,
            epsilon: 0.05,
            te_nrmse: 0.01,
            te_rmse: 0.1,
            cr: 9.5,
            segments: 1234,
        };
        let csv = compression_csv(&[c]);
        assert!(csv.starts_with("dataset,"));
        assert!(csv.contains("Solar,SZ,0.05,"));
        let fcsv = forecast_csv(&[rec(7, 0.25)]);
        assert!(fcsv.contains("ETTm1,Arima,PMC,0.1,7,"));
        assert_eq!(fcsv.lines().count(), 2);
    }
}
