//! End-to-end integration: the full Algorithm-1 pipeline over real crates
//! boundaries — generated dataset → split → model fit → compression →
//! TFE — plus the analysis toolchain on the outputs.

use std::sync::Arc;

use evalimplsts::analysis::features::{extract, FeatureOptions};
use evalimplsts::analysis::kneedle::{kneedle, Shape};
use evalimplsts::compression::{all_lossy, Method, PeblcCompressor};
use evalimplsts::evalcore::grid::GridConfig;
use evalimplsts::evalcore::scenario::{score_scenario_with, transform_series};
use evalimplsts::evalcore::{Engine, GridContext, GridReport, ScenarioOutcome, Subset};
use evalimplsts::forecast::{build_model, BuildOptions, ModelKind};
use evalimplsts::tsdata::datasets::{generate, DatasetKind, GenOptions};
use evalimplsts::tsdata::metrics::tfe;
use evalimplsts::tsdata::split::{split, Split, SplitSpec};

fn smoke_config() -> GridConfig {
    let mut cfg = GridConfig::smoke();
    cfg.len = Some(1_500);
    cfg.error_bounds = vec![0.05, 0.3];
    cfg.models = vec![ModelKind::GBoost];
    cfg
}

/// Algorithm 1 on one split: fit `kind` on raw train/val, then score it
/// on raw and transformed test data.
fn algorithm1(
    kind: ModelKind,
    s: &Split,
    compressors: &[Box<dyn PeblcCompressor>],
    bounds: &[f64],
) -> ScenarioOutcome {
    let mut model =
        build_model(kind, BuildOptions { input_len: 48, horizon: 12, ..Default::default() });
    model.fit(&s.train, &s.val).expect("model fits");
    let mut direct = |_: Subset, c: &dyn PeblcCompressor, eps: f64| {
        transform_series(&s.test, c, eps).map(Arc::new)
    };
    score_scenario_with(model.as_ref(), &s.train, &s.test, compressors, bounds, 8, 64, &mut direct)
        .expect("scenario runs")
}

/// The records of a report that lost no task.
fn complete<R>(report: GridReport<R>) -> Vec<R> {
    assert!(report.failures.is_empty(), "failed tasks: {:?}", report.failures);
    assert!(!report.records.is_empty(), "a grid without records");
    report.records
}

#[test]
fn algorithm1_produces_low_tfe_at_small_bounds() {
    let data = generate(DatasetKind::ETTm2, GenOptions::with_len(3_000));
    let s = split(&data, SplitSpec::default()).expect("splits");
    let outcome = algorithm1(ModelKind::DLinear, &s, &all_lossy(), &[0.01]);
    // RQ2: tiny error bounds barely affect forecasting accuracy.
    for (method, _, metrics) in &outcome.transformed {
        let t = tfe(outcome.baseline.rmse, metrics.rmse);
        assert!(t.abs() < 0.15, "{method} @ 0.01 has TFE {t}");
    }
}

#[test]
fn grids_agree_on_dimensions() {
    let cfg = smoke_config();
    let ctx = GridContext::new(cfg.clone());
    let comp = complete(Engine::new(&ctx).compression_report());
    assert_eq!(comp.len(), cfg.methods.len() * cfg.error_bounds.len());
    let fore = complete(Engine::new(&ctx).forecast_report());
    // 1 model x 1 seed x (1 baseline + methods x eps records)
    assert_eq!(fore.len(), 1 + cfg.methods.len() * cfg.error_bounds.len());
}

#[test]
fn features_distinguish_raw_from_heavily_compressed() {
    let data = generate(DatasetKind::ETTm1, GenOptions::with_len(3_000));
    let target = data.target();
    let opts = FeatureOptions { period: Some(96), shift_window: 48, cap: None };
    let original = extract(target.values(), opts);
    let pmc = Method::Pmc.compressor();
    let (heavy, _) = pmc.transform(target, 0.8).expect("compresses");
    let compressed = extract(heavy.values(), opts);
    // Heavy PMC averaging flattens the series: fewer crossings, more flat
    // spots, lower variance.
    assert!(compressed.get("flat_spots") > original.get("flat_spots"));
    assert!(compressed.get("var") < original.get("var"));
}

#[test]
fn elbow_detection_on_real_tfe_curve() {
    // Build a genuine TFE-vs-TE curve from the pipeline and locate an
    // elbow on it.
    let data = generate(DatasetKind::ETTm1, GenOptions::with_len(2_500));
    let s = split(&data, SplitSpec::default()).expect("splits");
    let bounds = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
    let pmc: Vec<Box<dyn PeblcCompressor>> = vec![Box::new(evalimplsts::compression::Pmc)];
    let outcome = algorithm1(ModelKind::GBoost, &s, &pmc, &bounds);
    let mut tes = Vec::new();
    let mut tfes = Vec::new();
    for (i, (_, _, metrics)) in outcome.transformed.iter().enumerate() {
        let (d, _) = evalimplsts::compression::Pmc
            .transform(s.test.target(), bounds[i])
            .expect("compresses");
        tes.push(evalimplsts::tsdata::metrics::nrmse(s.test.target().values(), d.values()));
        tfes.push(tfe(outcome.baseline.rmse, metrics.rmse));
    }
    // The curve is monotone-ish in TE; kneedle should find a point.
    let k = kneedle(&tes, &tfes, Shape::ConvexIncreasing, 1.0);
    assert!(k.is_some(), "no elbow on TE {tes:?} TFE {tfes:?}");
}

#[test]
fn seed_averaging_changes_deep_but_not_simple_counts() {
    let mut cfg = smoke_config();
    cfg.models = vec![ModelKind::GBoost, ModelKind::DLinear];
    cfg.seeds_deep = 2;
    cfg.seeds_simple = 1;
    assert_eq!(cfg.seeds_for(ModelKind::GBoost).len(), 1);
    assert_eq!(cfg.seeds_for(ModelKind::DLinear).len(), 2);
    let fore = complete(Engine::new(&GridContext::new(cfg)).forecast_report());
    // GBoost: 1 seed x 7 records; DLinear: 2 seeds x 7 records.
    assert_eq!(fore.len(), 7 + 14);
}
