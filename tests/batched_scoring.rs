//! Batched scoring is bitwise equal to a per-window `predict` oracle on
//! the quick grid's shape: all six datasets at 1,200 points (data seed
//! 7), GBoost and DLinear with input 48 and horizon 12, and all three
//! lossy methods at six error bounds. The scorer always stages windows
//! through `predict_batch`; the per-window loop lives only here.

use std::sync::Arc;

use evalimplsts::compression::{all_lossy, Method, PeblcCompressor};
use evalimplsts::evalcore::scenario::{score_scenario_with, score_transformed, transform_series};
use evalimplsts::evalcore::Subset;
use evalimplsts::forecast::{build_model, BuildOptions, Forecaster, ModelKind};
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions, ALL_DATASETS};
use evalimplsts::tsdata::metrics::{metric_set, MetricSet};
use evalimplsts::tsdata::scaler::StandardScaler;
use evalimplsts::tsdata::split::{
    make_eval_windows, make_windows, split, Split, SplitSpec, Window,
};

const INPUT: usize = 48;
const HORIZON: usize = 12;
const BATCH: usize = 64;
/// Every window of the 240-point test subset: 181 windows, so two full
/// batches and a ragged one of 53.
const STRIDE: usize = 1;
const BOUNDS: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
const MODELS: [ModelKind; 2] = [ModelKind::GBoost, ModelKind::DLinear];

fn quick_split(dataset: DatasetKind) -> Split {
    let data = generate(dataset, GenOptions { len: Some(1_200), channels: Some(1), seed: 7 });
    split(&data, SplitSpec::default()).expect("dataset splits 70/10/20")
}

/// The model a quick-grid task builds (seed 40, the first grid seed).
fn model(dataset: DatasetKind, kind: ModelKind) -> Box<dyn Forecaster> {
    let season = dataset.samples_per_day() as usize;
    build_model(
        kind,
        BuildOptions {
            input_len: INPUT,
            horizon: HORIZON,
            season: (season >= 2).then_some(season),
            seed: 40,
            ..Default::default()
        },
    )
}

/// The per-window oracle: one `predict` call per window, metrics
/// accumulated in window order.
fn oracle(model: &dyn Forecaster, windows: &[Window], scaler: &StandardScaler) -> MetricSet {
    let (mut truth, mut pred) = (Vec::new(), Vec::new());
    for w in windows {
        pred.extend(scaler.transform(0, &model.predict(&w.inputs).expect("model predicts")));
        truth.extend(scaler.transform(0, &w.target));
    }
    metric_set(&truth, &pred)
}

fn assert_bits(cell: &str, got: &MetricSet, want: &MetricSet) {
    for (name, g, w) in [
        ("r", got.r, want.r),
        ("rse", got.rse, want.rse),
        ("rmse", got.rmse, want.rmse),
        ("nrmse", got.nrmse, want.nrmse),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{cell}: {name} {g} vs oracle {w}");
    }
}

#[test]
fn grid_cells_match_the_per_window_oracle() {
    let compressors = all_lossy();
    for dataset in ALL_DATASETS {
        let s = quick_split(dataset);
        let scaler = StandardScaler::fit_single(s.train.target().values());
        let raw = make_windows(&s.test, INPUT, HORIZON, STRIDE);
        assert!(raw.len() > BATCH && !raw.len().is_multiple_of(BATCH), "{} windows", raw.len());
        // Evaluation windows of every (method, ε) cell, in scoring order.
        let cells: Vec<(String, Vec<Window>)> = compressors
            .iter()
            .flat_map(|c| BOUNDS.map(|eps| (c, eps)))
            .map(|(c, eps)| {
                let t_test = transform_series(&s.test, c.as_ref(), eps).expect("transforms");
                let windows = make_eval_windows(&s.test, &t_test, INPUT, HORIZON, STRIDE);
                (format!("{}@{eps}", c.name()), windows.expect("same length"))
            })
            .collect();
        for kind in MODELS {
            let mut m = model(dataset, kind);
            m.fit(&s.train, &s.val).expect("model fits");
            let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
                transform_series(&s.test, c, eps).map(Arc::new)
            };
            let outcome = score_scenario_with(
                m.as_ref(),
                &s.train,
                &s.test,
                &compressors,
                &BOUNDS,
                STRIDE,
                BATCH,
                &mut direct,
            )
            .expect("scenario scores");
            let task = format!("{}/{}", dataset.name(), kind.name());
            assert_bits(&task, &outcome.baseline, &oracle(m.as_ref(), &raw, &scaler));
            assert_eq!(outcome.transformed.len(), cells.len());
            for ((label, windows), (name, eps, got)) in cells.iter().zip(&outcome.transformed) {
                assert_eq!(label, &format!("{name}@{eps}"), "{task}: cell order");
                assert_bits(&format!("{task} {label}"), got, &oracle(m.as_ref(), windows, &scaler));
            }
        }
    }
}

#[test]
fn retrained_models_match_the_per_window_oracle() {
    let dataset = DatasetKind::ETTm1;
    let s = quick_split(dataset);
    let pmc = Method::Pmc.compressor();
    let [t_train, t_val, t_test] = [&s.train, &s.val, &s.test]
        .map(|subset| transform_series(subset, pmc.as_ref(), 0.4).expect("transforms"));
    let scaler = StandardScaler::fit_single(s.train.target().values());
    let windows = make_eval_windows(&s.test, &t_test, INPUT, HORIZON, STRIDE).expect("same length");
    assert!(
        windows.len() > BATCH && !windows.len().is_multiple_of(BATCH),
        "{} windows",
        windows.len()
    );
    for kind in MODELS {
        let mut m = model(dataset, kind);
        m.fit(&t_train, &t_val).expect("model fits on decompressed data");
        let got = score_transformed(m.as_ref(), &s.test, &t_test, &scaler, STRIDE, BATCH)
            .expect("scores");
        let cell = format!("{} retrained on PMC@0.4", kind.name());
        assert_bits(&cell, &got, &oracle(m.as_ref(), &windows, &scaler));
    }
}
