//! Golden digests of every model's fitted state, in the default test
//! command. Each of the paper's seven models is fitted at the tiny scale
//! of `crates/forecast/tests/state_roundtrip.rs`, and a CRC32 over its
//! `StateDict` (entry names and f64 bit patterns, in `entries()` order)
//! must match the table below, so any change to a fit path that moves a
//! single parameter bit fails here.

use evalimplsts::compression::crc32;
use evalimplsts::forecast::model::ALL_MODELS;
use evalimplsts::forecast::{build_model, BuildOptions, StateDict};
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
