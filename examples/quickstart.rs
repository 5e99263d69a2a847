//! Quickstart: compress a time series with each lossy method, check the
//! error bound, train a forecaster, and measure the impact of compression
//! on its accuracy (the paper's TFE).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use evalimplsts::compression::{
    all_lossy, find_bound_violation, raw_compressed_size, PeblcCompressor,
};
use evalimplsts::evalcore::scenario::{score_scenario_with, transform_series};
use evalimplsts::evalcore::{decode_state, encode_state, Subset};
use evalimplsts::forecast::{build_model, BuildOptions, ModelKind};
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions};
use evalimplsts::tsdata::metrics::{compression_ratio, nrmse, tfe};
use evalimplsts::tsdata::split::{split, SplitSpec};

fn main() {
    // 1. A dataset: the synthetic ETTm1 recreation (8k points for speed).
    let data = generate(DatasetKind::ETTm1, GenOptions::with_len(8_000));
    let target = data.target();
    println!("dataset: ETTm1, {} points, target '{}'", data.len(), data.names()[0]);

    // 2. Compress the target channel with each method at ε = 0.1.
    let epsilon = 0.1;
    let raw = raw_compressed_size(target);
    println!("\nlossy compression at relative error bound {epsilon}:");
    for compressor in all_lossy() {
        let (decompressed, frame) =
            compressor.transform(target, epsilon).expect("generated data compresses cleanly");
        assert!(
            find_bound_violation(target.values(), decompressed.values(), epsilon, 1e-9).is_none(),
            "PEBLC guarantee must hold"
        );
        println!(
            "  {:<6} CR = {:>6.2}   TE(NRMSE) = {:.4}   segments = {}",
            compressor.name(),
            compression_ratio(raw, frame.size_bytes()),
            nrmse(target.values(), decompressed.values()),
            frame.num_segments,
        );
    }

    // 3. Train a forecaster on the raw training subset and evaluate it on
    //    raw and lossy-transformed test data (Algorithm 1).
    let s = split(&data, SplitSpec::default()).expect("dataset splits 70/10/20");
    let mut model = build_model(ModelKind::GBoost, BuildOptions::default());
    println!("\ntraining {} (input 96 -> horizon 24)...", model.name());
    model.fit(&s.train, &s.val).expect("model fits");
    let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
        transform_series(&s.test, c, eps).map(Arc::new)
    };
    let outcome = score_scenario_with(
        model.as_ref(),
        &s.train,
        &s.test,
        &all_lossy(),
        &[0.05, 0.2],
        8,
        64,
        &mut direct,
    )
    .expect("scenario runs");
    println!("baseline RMSE (scaled): {:.4}", outcome.baseline.rmse);
    println!("\nimpact of lossy compression on forecasting (TFE, Eq. 2):");
    for (method, eps, metrics) in &outcome.transformed {
        println!(
            "  {:<6} eps = {:<4} RMSE = {:.4}  TFE = {:>+.2}%",
            method,
            eps,
            metrics.rmse,
            100.0 * tfe(outcome.baseline.rmse, metrics.rmse),
        );
    }

    // 4. The transformation itself is reusable: here is the decompressed
    //    test subset a downstream system would see.
    let transformed =
        transform_series(&s.test, all_lossy()[0].as_ref(), 0.2).expect("transformation succeeds");
    println!(
        "\nfirst 5 raw vs decompressed test values (PMC @ 0.2):\n  raw: {:?}\n  dec: {:?}",
        &s.test.target().values()[..5],
        &transformed.target().values()[..5],
    );

    // 5. Checkpointing: the fitted model serializes to the versioned
    //    artifact format, and a fresh model reloaded from those bytes
    //    predicts bit-identically (this is what `repro --artifacts`
    //    relies on to resume a killed run without refitting).
    let bytes = encode_state(&model.save_state().expect("fitted model exports state"))
        .expect("state encodes");
    let path = std::env::temp_dir().join("quickstart-gboost.state");
    std::fs::write(&path, &bytes).expect("artifact writes");
    println!("\nsaved fitted {} state: {} bytes -> {}", model.name(), bytes.len(), path.display());

    let restored = decode_state(&std::fs::read(&path).expect("artifact reads back"))
        .expect("artifact decodes");
    let mut reloaded = build_model(ModelKind::GBoost, BuildOptions::default());
    reloaded.load_state(&restored).expect("state loads into an identically built model");
    let window = vec![s.test.target().values()[..96].to_vec()];
    let before = model.predict(&window).expect("original predicts");
    let after = reloaded.predict(&window).expect("reloaded predicts");
    assert_eq!(before, after, "reloaded model must predict bit-identically");
    println!("reloaded model predicts bit-identically (first value {:.4})", after[0]);
    let _ = std::fs::remove_file(&path);
}
