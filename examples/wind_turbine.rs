//! The paper's §1 motivating scenario, end to end: a wind turbine
//! compresses its 2-second active-power stream before sending it to the
//! cloud; operators forecast from the decompressed stream and must pick a
//! compression method and error bound that do not wreck accuracy.
//!
//! This example sweeps error bounds for each method, reports the
//! bandwidth saved vs the forecasting accuracy lost, and applies the
//! paper's elbow analysis to recommend an operating point.
//!
//! ```text
//! cargo run --release --example wind_turbine
//! ```

use std::sync::Arc;

use evalimplsts::analysis::kneedle::{kneedle, Shape};
use evalimplsts::compression::{all_lossy, raw_compressed_size, PeblcCompressor};
use evalimplsts::evalcore::scenario::{score_scenario_with, transform_series};
use evalimplsts::evalcore::Subset;
use evalimplsts::forecast::{build_model, BuildOptions, ModelKind};
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions};
use evalimplsts::tsdata::metrics::{compression_ratio, nrmse, tfe};
use evalimplsts::tsdata::split::{split, SplitSpec};

fn main() {
    // 10 days of 2-second sensor data in the paper; a slice here.
    let data = generate(
        DatasetKind::Wind,
        GenOptions { len: Some(12_000), channels: Some(1), seed: 0x5EED },
    );
    let target = data.target();
    let raw_gz = raw_compressed_size(target);
    println!(
        "wind turbine: {} samples at 2s ({} hours), raw gzipped size {} KiB",
        target.len(),
        target.len() * 2 / 3600,
        raw_gz / 1024
    );

    // Train the operators' model once on raw history (Algorithm 1).
    let s = split(&data, SplitSpec::default()).expect("enough data to split");
    let mut model = build_model(
        ModelKind::GBoost,
        BuildOptions { input_len: 96, horizon: 24, ..Default::default() },
    );
    let error_bounds = [0.01, 0.05, 0.1, 0.2, 0.4];
    model.fit(&s.train, &s.val).expect("model fits");
    let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
        transform_series(&s.test, c, eps).map(Arc::new)
    };
    let outcome = score_scenario_with(
        model.as_ref(),
        &s.train,
        &s.test,
        &all_lossy(),
        &error_bounds,
        16,
        64,
        &mut direct,
    )
    .expect("scenario runs");
    println!("forecaster: {} | baseline RMSE {:.4}\n", model.name(), outcome.baseline.rmse);

    println!("{:<6} {:>5} {:>9} {:>11} {:>9}", "method", "eps", "CR", "TE(NRMSE)", "TFE");
    for compressor in all_lossy() {
        let mut tes = Vec::new();
        let mut tfes = Vec::new();
        for &eps in &error_bounds {
            let (d, frame) = compressor.transform(target, eps).expect("turbine data compresses");
            let te = nrmse(target.values(), d.values());
            let metrics = outcome
                .transformed
                .iter()
                .find(|(m, e, _)| *m == compressor.name() && (*e - eps).abs() < 1e-9)
                .map(|(_, _, metrics)| *metrics)
                .expect("evaluated above");
            let t = tfe(outcome.baseline.rmse, metrics.rmse);
            println!(
                "{:<6} {:>5} {:>9.2} {:>11.4} {:>8.2}%",
                compressor.name(),
                eps,
                compression_ratio(raw_gz, frame.size_bytes()),
                te,
                100.0 * t,
            );
            tes.push(te);
            tfes.push(t);
        }
        // Elbow: the TE past which accuracy degrades quickly (§4.3.2).
        match kneedle(&tes, &tfes, Shape::ConvexIncreasing, 1.0) {
            Some(k) => println!(
                "  -> recommended operating point for {}: eps = {} (elbow at TE {:.4})\n",
                compressor.name(),
                error_bounds[k],
                tes[k]
            ),
            None => println!("  -> no clear elbow for {}\n", compressor.name()),
        }
    }
}
