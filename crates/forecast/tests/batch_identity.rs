//! Property tests for the matrix-in/matrix-out inference path: for every
//! one of the paper's seven models, `predict_batch` over a random batch of
//! windows must be bitwise equal to looping `predict` over the same
//! windows — including batches of one and counts that leave ragged chunks
//! at any staging granularity.
//!
//! This is the contract `evalcore::scenario::score_windows` relies on to
//! keep batched grid metrics bitwise equal to a per-window `predict` loop.

use forecast::model::{ForecastError, Forecaster, ModelKind};
use forecast::{build_model, BuildOptions};
use neural::tensor::Tensor;
use proptest::prelude::*;
use tsdata::datasets::{generate, DatasetKind, GenOptions};
use tsdata::series::MultiSeries;
use tsdata::split::{split, SplitSpec};

const INPUT_LEN: usize = 16;
const HORIZON: usize = 4;

fn tiny_options(seed: u64) -> BuildOptions {
    BuildOptions { input_len: INPUT_LEN, horizon: HORIZON, seed, ..BuildOptions::default() }
}

fn tiny_series(data_seed: u64) -> MultiSeries {
    generate(DatasetKind::ETTm1, GenOptions { len: Some(360), channels: Some(1), seed: data_seed })
}

/// Draws `n` overlapping windows from the test subset, spread over the
/// available starts by a stride derived from `spread`.
fn sample_windows(test_vals: &[f64], n: usize, spread: usize) -> Vec<Vec<f64>> {
    let max_start = test_vals.len() - INPUT_LEN;
    (0..n)
        .map(|i| {
            let start = (i * (spread + 1)) % (max_start + 1);
            test_vals[start..start + INPUT_LEN].to_vec()
        })
        .collect()
}

fn stage(windows: &[Vec<f64>]) -> Tensor {
    let mut staged = Tensor::zeros(windows.len(), INPUT_LEN);
    for (r, w) in windows.iter().enumerate() {
        staged.data_mut()[r * INPUT_LEN..(r + 1) * INPUT_LEN].copy_from_slice(w);
    }
    staged
}

fn assert_batch_identity(model: &dyn Forecaster, windows: &[Vec<f64>]) {
    let batched = model.predict_batch(&stage(windows)).expect("batched predict succeeds");
    assert_eq!(batched.shape(), (windows.len(), HORIZON));
    for (r, w) in windows.iter().enumerate() {
        let single = model.predict(std::slice::from_ref(w)).expect("per-window predict succeeds");
        let batched_bits: Vec<u64> =
            batched.data()[r * HORIZON..(r + 1) * HORIZON].iter().map(|v| v.to_bits()).collect();
        let single_bits: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            batched_bits,
            single_bits,
            "{}: window {r} of {} diverged from the per-window oracle",
            model.name(),
            windows.len()
        );
    }
}

fn assert_model_batches(kind: ModelKind, seed: u64, data_seed: u64, n: usize, spread: usize) {
    let data = tiny_series(data_seed);
    let s = split(&data, SplitSpec::default()).expect("360 points split cleanly");
    let mut model = build_model(kind, tiny_options(seed));
    model.fit(&s.train, &s.val).expect("tiny fit succeeds");
    let windows = sample_windows(s.test.target().values(), n, spread);
    assert_batch_identity(model.as_ref(), &windows);
}

macro_rules! batch_props {
    ($($test:ident => $kind:expr),+ $(,)?) => {$(
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]

            #[test]
            fn $test(
                seed in 0u64..1_000,
                data_seed in 0u64..1_000,
                n in 1usize..9,
                spread in 0usize..12,
            ) {
                assert_model_batches($kind, seed, data_seed, n, spread);
            }
        }
    )+};
}

batch_props! {
    arima_batch_matches_per_window => ModelKind::Arima,
    gboost_batch_matches_per_window => ModelKind::GBoost,
    dlinear_batch_matches_per_window => ModelKind::DLinear,
    gru_batch_matches_per_window => ModelKind::Gru,
    informer_batch_matches_per_window => ModelKind::Informer,
    nbeats_batch_matches_per_window => ModelKind::NBeats,
    transformer_batch_matches_per_window => ModelKind::Transformer,
}

/// Batch of one must work: the batched path may never assume n > 1.
#[test]
fn single_window_batches_work() {
    let data = tiny_series(3);
    let s = split(&data, SplitSpec::default()).expect("splits");
    for kind in [ModelKind::GBoost, ModelKind::DLinear, ModelKind::Transformer] {
        let mut model = build_model(kind, tiny_options(1));
        model.fit(&s.train, &s.val).expect("fits");
        let windows = sample_windows(s.test.target().values(), 1, 0);
        assert_batch_identity(model.as_ref(), &windows);
    }
}

/// Shape errors surface as `BadWindow`, and unfitted models as
/// `NotFitted`, matching the per-window contract.
#[test]
fn batch_validation_errors() {
    let unfitted = build_model(ModelKind::DLinear, tiny_options(1));
    assert_eq!(
        unfitted.predict_batch(&Tensor::zeros(2, INPUT_LEN)).unwrap_err(),
        ForecastError::NotFitted
    );

    let data = tiny_series(5);
    let s = split(&data, SplitSpec::default()).expect("splits");
    let mut model = build_model(ModelKind::GBoost, tiny_options(1));
    model.fit(&s.train, &s.val).expect("fits");
    assert!(matches!(
        model.predict_batch(&Tensor::zeros(2, INPUT_LEN + 1)).unwrap_err(),
        ForecastError::BadWindow { .. }
    ));
    // Empty batches are well-formed: [0, horizon] out.
    let empty = model.predict_batch(&Tensor::zeros(0, INPUT_LEN)).expect("empty batch is fine");
    assert_eq!(empty.shape(), (0, HORIZON));
}

/// Deep-model degenerate batches: an empty batch is well-formed (`[0, h]`
/// out), and 9 windows — one full sub-batch of 8 plus a ragged tail of one
/// at the deep path's staging granularity, a count `batch_props` never
/// draws — stay bit-identical to the per-window oracle.
#[test]
fn deep_degenerate_batches() {
    let data = tiny_series(11);
    let s = split(&data, SplitSpec::default()).expect("splits");
    let windows = sample_windows(s.test.target().values(), 9, 3);
    for kind in [ModelKind::Gru, ModelKind::DLinear] {
        let mut model = build_model(kind, tiny_options(2));
        model.fit(&s.train, &s.val).expect("fits");
        let empty = model.predict_batch(&Tensor::zeros(0, INPUT_LEN)).expect("empty batch is fine");
        assert_eq!(empty.shape(), (0, HORIZON), "{}", model.name());
        assert_batch_identity(model.as_ref(), &windows);
    }
}
