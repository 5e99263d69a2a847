//! Algorithm 1 — the paper's evaluation procedure.
//!
//! A forecasting model is trained once on the *raw* training subset; the
//! *test* subset is lossy-compressed and decompressed (`T(test | C, ε)`),
//! and the model predicts from the transformed inputs while being scored
//! against the raw targets. The transformation forecasting error (TFE)
//! compares those scores to the raw-input baseline.
//!
//! [`score_scenario_with`] is the one Algorithm-1 scorer: callers fit the
//! model, then score it through a `TransformProvider`. The grid's
//! [`ForecastTask`](crate::engine::ForecastTask) passes a provider backed
//! by the shared transform cache; a stand-alone caller passes a direct
//! [`transform_series`] call. The §4.4.1 scenario — retraining on
//! decompressed data — is [`RetrainTask`](crate::engine::RetrainTask),
//! which scores each retrained model through [`score_transformed`].

use std::sync::Arc;

use compression::codec::PeblcCompressor;
use forecast::model::{ForecastError, Forecaster};
use tsdata::metrics::{metric_set, MetricSet};
use tsdata::scaler::StandardScaler;
use tsdata::series::{MultiSeries, SeriesError};
use tsdata::split::{make_eval_windows, make_windows, Window};

use crate::cache::Subset;

/// Supplies the transformed version of one subset for a `(method, ε)`
/// pair. The grid backs this with the shared
/// [`TransformCache`](crate::cache::TransformCache); a stand-alone caller
/// backs it with a direct [`transform_series`] call:
/// `|_, c, eps| transform_series(&test, c, eps).map(Arc::new)`.
type TransformProvider<'a> =
    dyn FnMut(Subset, &dyn PeblcCompressor, f64) -> Result<Arc<MultiSeries>, ScenarioError> + 'a;

/// Errors from running the scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// Model fitting or prediction failed.
    Forecast(ForecastError),
    /// Compression or decompression failed.
    Codec(compression::CodecError),
    /// Series manipulation failed.
    Series(SeriesError),
    /// The chunked store rejected an ingest or read (store-backed runs).
    Store(store::StoreError),
    /// The test subset yields no evaluation windows.
    NoWindows,
    /// A task referenced a method absent from the grid configuration.
    UnknownMethod(&'static str),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Forecast(e) => write!(f, "forecasting: {e}"),
            ScenarioError::Codec(e) => write!(f, "compression: {e}"),
            ScenarioError::Series(e) => write!(f, "series: {e}"),
            ScenarioError::Store(e) => write!(f, "store: {e}"),
            ScenarioError::NoWindows => write!(f, "no evaluation windows in test subset"),
            ScenarioError::UnknownMethod(name) => {
                write!(f, "method {name} is not in the grid configuration")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ForecastError> for ScenarioError {
    fn from(e: ForecastError) -> Self {
        ScenarioError::Forecast(e)
    }
}

impl From<compression::CodecError> for ScenarioError {
    fn from(e: compression::CodecError) -> Self {
        ScenarioError::Codec(e)
    }
}

impl From<SeriesError> for ScenarioError {
    fn from(e: SeriesError) -> Self {
        ScenarioError::Series(e)
    }
}

impl From<store::StoreError> for ScenarioError {
    fn from(e: store::StoreError) -> Self {
        ScenarioError::Store(e)
    }
}

/// Applies the transformation `T` to every channel of a series,
/// short-circuiting on the first codec error (a failed channel poisons
/// the whole series, so transforming the rest would be wasted work).
pub fn transform_series(
    data: &MultiSeries,
    compressor: &dyn PeblcCompressor,
    epsilon: f64,
) -> Result<MultiSeries, ScenarioError> {
    data.try_map_channels(|c| {
        compressor.transform(c, epsilon).map(|(d, _)| d).map_err(ScenarioError::from)
    })
}

/// Scores a fitted model on evaluation windows. Metrics are computed in
/// *scaled* units (the train-fitted standard scaler applied to both
/// predictions and raw targets), matching the magnitudes of the paper's
/// Table 2.
///
/// Windows are staged into `[batch_size, input_len]` matrices (`0`
/// behaves as 1) and predicted through [`Forecaster::predict_batch`] per
/// chunk. Every in-tree model's batched rows are bitwise equal to its
/// per-window [`Forecaster::predict`], and metrics accumulate in window
/// order, so the metrics (and any CSV derived from them) are identical
/// for every batch size and equal to a per-window loop's.
pub(crate) fn score_windows(
    model: &dyn Forecaster,
    windows: &[Window],
    scaler: &StandardScaler,
    batch_size: usize,
) -> Result<MetricSet, ScenarioError> {
    if windows.is_empty() {
        return Err(ScenarioError::NoWindows);
    }
    let label = [("model", model.name())];
    let h = model.horizon();
    let mut all_pred = Vec::with_capacity(windows.len() * h);
    let mut all_truth = Vec::with_capacity(windows.len() * h);
    for chunk in windows.chunks(batch_size.max(1)) {
        let staged = forecast::batch::stage_windows(chunk, model.input_len());
        let start = std::time::Instant::now();
        let preds = model.predict_batch(&staged)?;
        telemetry::observe("predict_batch_seconds", &label, telemetry::secs(start.elapsed()));
        for (r, w) in chunk.iter().enumerate() {
            all_pred.extend(scaler.transform(0, &preds.data()[r * h..(r + 1) * h]));
            all_truth.extend(scaler.transform(0, &w.target));
        }
    }
    telemetry::counter_add("predict_windows_total", &label, windows.len() as u64);
    Ok(metric_set(&all_truth, &all_pred))
}

/// One evaluated configuration: baseline plus per-(method, ε) scores.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scores on the raw test subset (the Table-2 baseline).
    pub baseline: MetricSet,
    /// Scores on transformed test subsets, in the order evaluated:
    /// `(method_name, epsilon, metrics)`.
    pub transformed: Vec<(&'static str, f64, MetricSet)>,
}

/// Algorithm 1 for an **already fitted** model: scores the raw baseline
/// and every `(compressor, ε)` combination, requesting each transformed
/// test subset ([`Subset::Test`]) from `transform`. `eval_stride`
/// subsamples test windows (1 = every window, as in the paper; larger =
/// faster); `batch_size` stages inference as in `score_windows`.
#[allow(clippy::too_many_arguments)]
pub fn score_scenario_with(
    model: &dyn Forecaster,
    train: &MultiSeries,
    test: &MultiSeries,
    compressors: &[Box<dyn PeblcCompressor>],
    error_bounds: &[f64],
    eval_stride: usize,
    batch_size: usize,
    transform: &mut TransformProvider<'_>,
) -> Result<ScenarioOutcome, ScenarioError> {
    let scaler = StandardScaler::fit_single(train.target().values());
    let raw_windows = make_windows(test, model.input_len(), model.horizon(), eval_stride);
    if raw_windows.is_empty() {
        return Err(ScenarioError::NoWindows);
    }
    let baseline = score_windows(model, &raw_windows, &scaler, batch_size)?;

    let mut transformed = Vec::new();
    for compressor in compressors {
        for &eps in error_bounds {
            let t_test = transform(Subset::Test, compressor.as_ref(), eps)?;
            let metrics =
                score_transformed(model, test, &t_test, &scaler, eval_stride, batch_size)?;
            transformed.push((compressor.name(), eps, metrics));
        }
    }
    Ok(ScenarioOutcome { baseline, transformed })
}

/// Scores a fitted model on one transformed test subset (inputs from
/// `t_test`, targets from the raw `test`), in scaled units.
pub fn score_transformed(
    model: &dyn Forecaster,
    test: &MultiSeries,
    t_test: &MultiSeries,
    scaler: &StandardScaler,
    eval_stride: usize,
    batch_size: usize,
) -> Result<MetricSet, ScenarioError> {
    let windows = make_eval_windows(test, t_test, model.input_len(), model.horizon(), eval_stride)?;
    score_windows(model, &windows, scaler, batch_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compression::{Pmc, Sz};
    use forecast::{build_model, BuildOptions, ModelKind};
    use tsdata::series::RegularTimeSeries;
    use tsdata::split::{split, SplitSpec};

    fn dataset(n: usize) -> MultiSeries {
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                10.0 + 3.0 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()
                    + ((i * 13) % 7) as f64 * 0.05
            })
            .collect();
        MultiSeries::univariate("y", RegularTimeSeries::new(0, 3600, vals).unwrap())
    }

    /// The per-window reference: one `predict` call per window, metrics
    /// accumulated in window order.
    fn per_window(
        model: &dyn Forecaster,
        windows: &[Window],
        scaler: &StandardScaler,
    ) -> MetricSet {
        let (mut truth, mut pred) = (Vec::new(), Vec::new());
        for w in windows {
            pred.extend(scaler.transform(0, &model.predict(&w.inputs).unwrap()));
            truth.extend(scaler.transform(0, &w.target));
        }
        metric_set(&truth, &pred)
    }

    #[test]
    fn transform_series_respects_bound() {
        let data = dataset(500);
        let t = transform_series(&data, &Pmc, 0.1).unwrap();
        assert_eq!(t.len(), data.len());
        assert!(compression::find_bound_violation(
            data.target().values(),
            t.target().values(),
            0.1,
            1e-9
        )
        .is_none());
    }

    #[test]
    fn score_scenario_end_to_end() {
        let data = dataset(1500);
        let s = split(&data, SplitSpec::default()).unwrap();
        let mut model = build_model(
            ModelKind::GBoost,
            BuildOptions { input_len: 48, horizon: 12, ..Default::default() },
        );
        model.fit(&s.train, &s.val).unwrap();
        let compressors: Vec<Box<dyn PeblcCompressor>> = vec![Box::new(Pmc), Box::new(Sz)];
        let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
            transform_series(&s.test, c, eps).map(Arc::new)
        };
        let outcome = score_scenario_with(
            model.as_ref(),
            &s.train,
            &s.test,
            &compressors,
            &[0.01, 0.3],
            4,
            64,
            &mut direct,
        )
        .unwrap();
        assert_eq!(outcome.transformed.len(), 4);
        // Baseline on this clean seasonal series must be decent.
        assert!(outcome.baseline.rmse < 0.6, "baseline rmse {}", outcome.baseline.rmse);
        // Tiny error bound barely changes accuracy; huge one changes it more.
        let small = outcome.transformed[0].2.rmse;
        let large = outcome.transformed[1].2.rmse;
        let tfe_small = tsdata::metrics::tfe(outcome.baseline.rmse, small);
        let tfe_large = tsdata::metrics::tfe(outcome.baseline.rmse, large);
        assert!(tfe_small.abs() < 0.5, "tfe at eps 0.01: {tfe_small}");
        assert!(tfe_large >= tfe_small - 0.05, "{tfe_large} vs {tfe_small}");
    }

    #[test]
    fn no_windows_error() {
        let data = dataset(300);
        let s = split(&data, SplitSpec::default()).unwrap();
        let model = build_model(
            ModelKind::GBoost,
            BuildOptions { input_len: 96, horizon: 24, ..Default::default() },
        );
        // test subset has 60 points < 96 + 24 -> no windows, reported
        // before the (unfitted) model is ever asked to predict.
        let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
            transform_series(&s.test, c, eps).map(Arc::new)
        };
        let res =
            score_scenario_with(model.as_ref(), &s.train, &s.test, &[], &[], 1, 64, &mut direct);
        assert!(matches!(res, Err(ScenarioError::NoWindows)));
    }

    #[test]
    fn score_windows_empty_is_no_windows() {
        let data = dataset(1200);
        let s = split(&data, SplitSpec::default()).unwrap();
        let mut model = build_model(
            ModelKind::GBoost,
            BuildOptions { input_len: 48, horizon: 12, ..Default::default() },
        );
        model.fit(&s.train, &s.val).unwrap();
        let scaler = StandardScaler::fit_single(s.train.target().values());
        for batch_size in [0, 1, 64] {
            let res = score_windows(model.as_ref(), &[], &scaler, batch_size);
            assert!(matches!(res, Err(ScenarioError::NoWindows)), "batch_size {batch_size}");
        }
    }

    #[test]
    fn batched_scoring_matches_per_window_oracle() {
        let data = dataset(1500);
        let s = split(&data, SplitSpec::default()).unwrap();
        let mut model = build_model(
            ModelKind::DLinear,
            BuildOptions { input_len: 48, horizon: 12, ..Default::default() },
        );
        model.fit(&s.train, &s.val).unwrap();
        let scaler = StandardScaler::fit_single(s.train.target().values());
        // Strides > 1 and strides that leave ragged final chunks both have
        // to reproduce the per-window metrics bit for bit; batch size 0
        // stages one window per call.
        for eval_stride in [1, 5] {
            let windows = make_windows(&s.test, 48, 12, eval_stride);
            assert!(!windows.is_empty());
            let oracle = per_window(model.as_ref(), &windows, &scaler);
            for batch_size in [0, 1, 7, 64, windows.len() + 10] {
                let batched = score_windows(model.as_ref(), &windows, &scaler, batch_size).unwrap();
                assert_eq!(
                    oracle.rmse.to_bits(),
                    batched.rmse.to_bits(),
                    "rmse diverged at stride {eval_stride} batch {batch_size}"
                );
                assert_eq!(oracle.r.to_bits(), batched.r.to_bits());
                assert_eq!(oracle.rse.to_bits(), batched.rse.to_bits());
                assert_eq!(oracle.nrmse.to_bits(), batched.nrmse.to_bits());
            }
        }
    }

    #[test]
    fn window_count_not_divisible_by_batch_size() {
        let data = dataset(1500);
        let s = split(&data, SplitSpec::default()).unwrap();
        let mut model = build_model(
            ModelKind::GBoost,
            BuildOptions { input_len: 48, horizon: 12, ..Default::default() },
        );
        model.fit(&s.train, &s.val).unwrap();
        let scaler = StandardScaler::fit_single(s.train.target().values());
        let windows = make_windows(&s.test, 48, 12, 3);
        // Pick a batch size that guarantees a ragged final chunk.
        let batch_size = windows.len() / 2 + 1;
        assert!(!windows.len().is_multiple_of(batch_size));
        let oracle = per_window(model.as_ref(), &windows, &scaler);
        let batched = score_windows(model.as_ref(), &windows, &scaler, batch_size).unwrap();
        assert_eq!(oracle.rmse.to_bits(), batched.rmse.to_bits());
    }
}
