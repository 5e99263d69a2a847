//! RQ3 as an example: which forecasting models tolerate lossy compression
//! best? Trains a simple model (Arima) and a deep model (NBeats) on the
//! same dataset, sweeps error bounds, and compares their TFE curves —
//! reproducing the paper's finding that trend-oriented simple models are
//! more resilient than models that exploit short-term fluctuations.
//!
//! Also demonstrates the characteristics toolkit: the max KL shift of the
//! decompressed series (the paper's top TFE predictor) printed next to
//! each TFE so the correlation is visible directly.
//!
//! ```text
//! cargo run --release --example model_resilience
//! ```

use std::sync::Arc;

use evalimplsts::analysis::features::{extract, FeatureOptions};
use evalimplsts::compression::{all_lossy, Method, PeblcCompressor};
use evalimplsts::evalcore::scenario::{score_scenario_with, transform_series};
use evalimplsts::evalcore::Subset;
use evalimplsts::forecast::{build_model, BuildOptions, ModelKind};
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions};
use evalimplsts::tsdata::metrics::tfe;
use evalimplsts::tsdata::split::{split, SplitSpec};

fn main() {
    let dataset = DatasetKind::ETTm2;
    let data = generate(dataset, GenOptions::with_len(6_000));
    let s = split(&data, SplitSpec::default()).expect("splits 70/10/20");
    let error_bounds = [0.05, 0.1, 0.2, 0.4];
    let season = dataset.samples_per_day() as usize;

    // Characteristics of the decompressed test data (PMC), per error bound.
    let opts = FeatureOptions { period: Some(season), shift_window: 48, cap: Some(4_000) };
    let original = extract(s.test.target().values(), opts);

    println!("dataset: {} | models: Arima vs NBeats | methods averaged\n", dataset.name());
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>14}",
        "model", "eps", "TFE(Arima)", "TFE(NBeats)", "d(max_kl_shift)"
    );

    let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
        transform_series(&s.test, c, eps).map(Arc::new)
    };
    let mut results: Vec<(ModelKind, Vec<f64>)> = Vec::new();
    for kind in [ModelKind::Arima, ModelKind::NBeats] {
        let mut model =
            build_model(kind, BuildOptions { season: Some(season), ..Default::default() });
        model.fit(&s.train, &s.val).expect("model fits");
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
        // Mean TFE across the three methods per error bound.
        let tfes: Vec<f64> = error_bounds
            .iter()
            .map(|&eps| {
                let vals: Vec<f64> = outcome
                    .transformed
                    .iter()
                    .filter(|(_, e, _)| (*e - eps).abs() < 1e-9)
                    .map(|(_, _, m)| tfe(outcome.baseline.rmse, m.rmse))
                    .collect();
                vals.iter().sum::<f64>() / vals.len() as f64
            })
            .collect();
        results.push((kind, tfes));
    }

    let pmc = Method::Pmc.compressor();
    for (i, &eps) in error_bounds.iter().enumerate() {
        let (d, _) = pmc.transform(s.test.target(), eps).expect("compresses");
        let transformed = extract(d.values(), opts);
        let kl_diff = (transformed.get("max_kl_shift") - original.get("max_kl_shift")).abs();
        println!(
            "{:<8} {:>6} {:>11.2}% {:>11.2}% {:>14.3}",
            "",
            eps,
            100.0 * results[0].1[i],
            100.0 * results[1].1[i],
            kl_diff,
        );
    }

    let arima_mean: f64 = results[0].1.iter().sum::<f64>() / results[0].1.len() as f64;
    let nbeats_mean: f64 = results[1].1.iter().sum::<f64>() / results[1].1.len() as f64;
    println!(
        "\nmean TFE — Arima: {:+.2}%, NBeats: {:+.2}%",
        100.0 * arima_mean,
        100.0 * nbeats_mean
    );
    println!(
        "{}",
        if arima_mean <= nbeats_mean {
            "-> the simple, trend-oriented model is more resilient (paper RQ3.2)."
        } else {
            "-> on this run the deep model was more resilient; the paper finds this \
             varies per dataset (Table 7), with Arima leading overall."
        }
    );
}
