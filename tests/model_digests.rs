//! Golden digests of every model's fitted state, in the default test
//! command. Each of the paper's seven models is fitted at the tiny scale
//! of `crates/forecast/tests/state_roundtrip.rs`, and a CRC32 over its
//! `StateDict` (entry names and f64 bit patterns, in `entries()` order)
//! must match the table below, so any change to a fit path that moves a
//! single parameter bit fails here. A second table pins the two attention
//! models at the grid's window shape, forecasts included.

use evalimplsts::compression::crc32;
use evalimplsts::forecast::model::ALL_MODELS;
use evalimplsts::forecast::{build_model, BuildOptions, ModelKind, StateDict};
use evalimplsts::neural::tensor::Tensor;
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions};
use evalimplsts::tsdata::split::{split, SplitSpec};

/// CRC32 of each model's fitted state, in `ALL_MODELS` order.
const GOLDEN: &[(&str, u32)] = &[
    ("Arima", 0xf9132a65),
    ("GBoost", 0x2c5982aa),
    ("DLinear", 0xe7673d00),
    ("GRU", 0xe8cf7027),
    ("Informer", 0xa7dde8c4),
    ("NBeats", 0xfd5efe3d),
    ("Transformer", 0xbb7a9abb),
];

fn state_digest(state: &StateDict) -> u32 {
    let mut bytes = Vec::new();
    for (name, tensor) in state.entries() {
        bytes.extend_from_slice(name.as_bytes());
        for v in tensor.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

fn model_digests(channels: Option<usize>) -> Vec<(&'static str, u32)> {
    let data = generate(DatasetKind::ETTm1, GenOptions { len: Some(360), channels, seed: 7 });
    let s = split(&data, SplitSpec::default()).expect("360 points split cleanly");
    let opts = BuildOptions { input_len: 16, horizon: 4, seed: 11, ..BuildOptions::default() };
    ALL_MODELS
        .into_iter()
        .map(|kind| {
            let mut model = build_model(kind, opts);
            model.fit(&s.train, &s.val).expect("tiny fit succeeds");
            (kind.name(), state_digest(&model.save_state().expect("fitted model exports state")))
        })
        .collect()
}

fn assert_golden(channels: Option<usize>) {
    let got = model_digests(channels);
    let table: String = got.iter().map(|(k, c)| format!("    (\"{k}\", 0x{c:08x}),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((name, crc), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "model order drifted; golden table:\n{table}");
        assert_eq!(*crc, *want, "{name}: fitted state changed; golden table:\n{table}");
    }
}

#[test]
fn fitted_states_match_golden_digests() {
    assert_golden(Some(1));
}

/// Every fit reads only the target channel, so data generated with the
/// auxiliary channels (as artifacts keyed `ch=default` once were) yields
/// the same states bit for bit.
#[test]
fn fitted_states_ignore_auxiliary_channels() {
    assert_golden(Some(7));
}

/// CRC32 of the fitted state and of `predict_batch` over [`GRID_WINDOWS`]
/// test windows, for the attention models at the grid's window shape
/// (input 96, horizon 24). There ProbSparse leaves 73 of the 96 encoder
/// queries lazy, against 2 of 16 at the shape of [`GOLDEN`].
const GOLDEN_GRID: &[(&str, u32, u32)] =
    &[("Informer", 0xfbefa35f, 0x74f4f571), ("Transformer", 0x979d9d1c, 0x2f12eef3)];

/// One window past the 8-row chunk that stacked inference runs per graph.
const GRID_WINDOWS: usize = 9;

fn bits_digest(values: &[f64]) -> u32 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    crc32(&bytes)
}

/// ETTm1 at 1,250 points: 875 training points and a 125-point validation
/// subset, which holds exactly one 120-point window.
#[test]
fn attention_models_match_golden_digests_at_grid_shape() {
    let data =
        generate(DatasetKind::ETTm1, GenOptions { len: Some(1_250), channels: Some(1), seed: 7 });
    let s = split(&data, SplitSpec::default()).expect("1,250 points split cleanly");
    let (input, horizon) = (96, 24);
    let opts = BuildOptions { input_len: input, horizon, seed: 11, ..BuildOptions::default() };
    let test = s.test.target().values();
    let stride = (test.len() - input) / (GRID_WINDOWS - 1);
    let mut windows = Tensor::zeros(GRID_WINDOWS, input);
    for r in 0..GRID_WINDOWS {
        windows.data_mut()[r * input..(r + 1) * input]
            .copy_from_slice(&test[r * stride..r * stride + input]);
    }
    let got: Vec<(&str, u32, u32)> = [ModelKind::Informer, ModelKind::Transformer]
        .into_iter()
        .map(|kind| {
            let mut model = build_model(kind, opts);
            model.fit(&s.train, &s.val).expect("grid-shape fit succeeds");
            let state = state_digest(&model.save_state().expect("fitted model exports state"));
            let pred = model.predict_batch(&windows).expect("fitted model predicts");
            assert_eq!(pred.shape(), (GRID_WINDOWS, horizon));
            (kind.name(), state, bits_digest(pred.data()))
        })
        .collect();
    let table: String =
        got.iter().map(|(k, st, pr)| format!("    (\"{k}\", 0x{st:08x}, 0x{pr:08x}),\n")).collect();
    assert_eq!(got, GOLDEN_GRID, "grid-shape golden table:\n{table}");
}
