//! Figure 7 and the §4.4.1 decomposition analysis: Arima and DLinear
//! retrained on decompressed ETTm1/ETTm2 data, plus the trend/remainder
//! RMSE comparison that explains DLinear's sensitivity.

use forecast::dlinear::decompose;
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;
use tsdata::metrics::{rmse, tfe};

use super::fmt::{f, TextTable};
use crate::cache::GridContext;
use crate::engine::{Engine, GridReport};
use crate::grid::GridConfig;
use crate::results::{failure_summary, mean, ForecastRecord};

/// One Figure-7 point: TFE of a retrained model.
#[derive(Debug, Clone, Copy)]
pub struct RetrainPoint {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Model.
    pub model: ModelKind,
    /// Method name.
    pub method: &'static str,
    /// Error bound.
    pub epsilon: f64,
    /// TFE of the retrained model vs the raw-trained baseline.
    pub tfe: f64,
}

/// Figure 7 output.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// All evaluated points.
    pub points: Vec<RetrainPoint>,
}

/// Runs the retraining experiment. The paper uses Arima and DLinear on
/// ETTm1 and ETTm2 with error bounds up to ~0.2. Internally this drives
/// the engine's retrain grid, so train/val/test transforms are shared
/// across models through the grid's [`GridContext`] cache (the figure
/// uses a single fit per cell — seed 40).
pub fn run(config: &GridConfig, models: &[ModelKind], error_bounds: &[f64]) -> Fig7 {
    let _span = telemetry::span("experiment.retrain", &[]);
    let mut cfg = config.clone();
    cfg.models = models.to_vec();
    cfg.error_bounds = error_bounds.to_vec();
    cfg.seeds_deep = 1;
    cfg.seeds_simple = 1;
    let ctx = GridContext::new(cfg);
    let records = Engine::new(&ctx).retrain_report().into_records_logged("fig7 retrain grid");

    let baseline = |dataset: DatasetKind, model: ModelKind| {
        records
            .iter()
            .find(|r| r.dataset == dataset && r.model == model && r.method.is_none())
            .map(|r| r.metrics.rmse)
    };
    let mut points = Vec::new();
    for r in &records {
        let Some(method) = r.method else { continue };
        let Some(base) = baseline(r.dataset, r.model) else { continue };
        points.push(RetrainPoint {
            dataset: r.dataset,
            model: r.model,
            method: method.name(),
            epsilon: r.epsilon,
            tfe: tfe(base, r.metrics.rmse),
        });
    }
    Fig7 { points }
}

impl Fig7 {
    /// Renders the figure data.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Dataset", "Model", "Method", "EB", "TFE"]);
        for p in &self.points {
            t.row(vec![
                p.dataset.name().to_string(),
                p.model.name().to_string(),
                p.method.to_string(),
                f(p.epsilon, 2),
                f(p.tfe, 4),
            ]);
        }
        format!("Figure 7: TFE when training on decompressed data\n{}", t.render())
    }
}

/// Renders the full §4.4.1 retraining grid (`Engine::retrain_report`,
/// the `repro` CLI's `retrain` experiment): per-cell RMSE and TFE against
/// the raw-trained baseline of the same `(dataset, model, seed)`, plus a
/// partial-grid note when tasks were lost.
pub fn render_grid(report: &GridReport<ForecastRecord>) -> String {
    let baseline = |r: &ForecastRecord| {
        report.records.iter().find(|b| {
            b.dataset == r.dataset && b.model == r.model && b.seed == r.seed && b.method.is_none()
        })
    };
    let mut t = TextTable::new(&["Dataset", "Model", "Seed", "Method", "EB", "RMSE", "TFE"]);
    for r in &report.records {
        let Some(method) = r.method else { continue };
        let tfe_cell = baseline(r)
            .map(|b| f(tfe(b.metrics.rmse, r.metrics.rmse), 4))
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            r.dataset.name().to_string(),
            r.model.name().to_string(),
            r.seed.to_string(),
            method.name().to_string(),
            f(r.epsilon, 2),
            f(r.metrics.rmse, 4),
            tfe_cell,
        ]);
    }
    let mut out = format!("Retrain grid (4.4.1 at grid scale)\n{}", t.render());
    if let Some(s) = failure_summary(&report.failures) {
        out.push_str(&format!("\nPartial grid: {s}\n"));
    }
    out
}

/// §4.4.1 decomposition analysis: RMSE between the trend (and remainder)
/// components of the original and decompressed series, averaged across
/// methods. Returns `(trend_rmse, remainder_rmse)`.
fn decomposition_impact(
    config: &GridConfig,
    dataset: DatasetKind,
    epsilon: f64,
    kernel: usize,
) -> (f64, f64) {
    let data = config.dataset(dataset);
    let target = data.target();
    // Scale to the unit the paper reports (standardized series).
    let scaler = tsdata::scaler::StandardScaler::fit_single(target.values());
    let scaled = scaler.transform(0, target.values());
    let (trend_o, rem_o) = decompose(&scaled, kernel);
    let mut trend_rmses = Vec::new();
    let mut rem_rmses = Vec::new();
    for method in &config.methods {
        let Ok((d, _)) = method.compressor().transform(target, epsilon) else { continue };
        let d_scaled = scaler.transform(0, d.values());
        let (trend_d, rem_d) = decompose(&d_scaled, kernel);
        trend_rmses.push(rmse(&trend_o, &trend_d));
        rem_rmses.push(rmse(&rem_o, &rem_d));
    }
    (mean(&trend_rmses), mean(&rem_rmses))
}

/// Renders the decomposition analysis for the paper's two datasets.
pub fn render_decomposition(config: &GridConfig) -> String {
    let mut t = TextTable::new(&["Dataset", "EB", "trend RMSE", "remainder RMSE"]);
    for (dataset, eb) in [(DatasetKind::ETTm1, 0.2), (DatasetKind::ETTm2, 0.1)] {
        let (tr, rem) = decomposition_impact(config, dataset, eb, 25);
        t.row(vec![dataset.name().to_string(), f(eb, 1), f(tr, 3), f(rem, 3)]);
    }
    format!(
        "Decomposition impact (4.4.1): RMSE of trend/remainder, original vs decompressed\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GridConfig {
        let mut c = GridConfig::smoke();
        c.datasets = vec![DatasetKind::ETTm1];
        c.len = Some(1500);
        c
    }

    #[test]
    fn retrain_experiment_runs() {
        let c = cfg();
        let fig = run(&c, &[ModelKind::GBoost], &[0.1, 0.3]);
        // 1 dataset x 1 model x 3 methods x 2 eps
        assert_eq!(fig.points.len(), 6);
        assert!(fig.render().contains("Figure 7"));
    }

    #[test]
    fn retrain_grid_cli_experiment_renders() {
        let mut c = cfg();
        c.error_bounds = vec![0.1];
        c.models = vec![ModelKind::GBoost];
        let report = Engine::new(&GridContext::new(c)).retrain_report();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.records.len(), 4); // baseline + 3 methods x 1 eps
        let s = render_grid(&report);
        assert!(s.contains("Retrain grid"));
        assert!(s.contains("TFE"));
        assert!(!s.contains("Partial grid"));
    }

    #[test]
    fn remainder_hit_harder_than_trend() {
        // §4.4.1: compression affects short-term fluctuations (remainder)
        // more than the overall trend.
        let c = cfg();
        let (trend, remainder) = decomposition_impact(&c, DatasetKind::ETTm1, 0.2, 25);
        assert!(trend >= 0.0 && remainder >= 0.0);
        assert!(remainder > trend, "remainder RMSE {remainder} should exceed trend RMSE {trend}");
        assert!(render_decomposition(&c).contains("remainder"));
    }
}
