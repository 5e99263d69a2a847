//! Table 2 (baseline accuracy), Figure 4 (TFE vs TE with 95% CIs across
//! models), Figure 6 (average TFE per model), and Table 7 (best models by
//! NRMSE and by TFE) — the RQ2/RQ3 forecasting experiments.

use compression::Method;
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;
use tsdata::metrics::{tfe, MetricSet};

use super::fmt::{f, TextTable};
use crate::cache::GridContext;
use crate::engine::Engine;
use crate::grid::GridConfig;
use crate::results::{
    average_over_seeds, ci95_half_width, failure_summary, mean, CompressionRecord, ForecastRecord,
    TaskFailure,
};

/// Combined forecasting-grid output.
#[derive(Debug, Clone)]
pub struct ForecastExperiment {
    /// Grid configuration used (for dataset/method/model lists).
    pub config: GridConfig,
    /// Seed-averaged forecast records.
    pub forecast: Vec<ForecastRecord>,
    /// Compression measurements (for the TE axis of Figure 4).
    pub compression: Vec<CompressionRecord>,
    /// Tasks (from either grid) that failed or panicked; the renders
    /// append a partial-grid note when non-empty.
    pub failures: Vec<TaskFailure>,
}

/// Runs both grids through one [`Engine`] over a shared [`GridContext`]
/// (datasets are generated once, split-subset transforms memoized across
/// tasks) and averages forecast metrics over seeds. Failed tasks are
/// collected into [`ForecastExperiment::failures`] rather than aborting
/// the run.
pub fn run(config: &GridConfig) -> ForecastExperiment {
    let _span = telemetry::span("experiment.forecasting", &[]);
    let ctx = GridContext::new(config.clone());
    let engine = Engine::new(&ctx);
    let forecast_report = engine.forecast_report();
    let compression_report = engine.compression_report();
    let mut failures = forecast_report.failures;
    failures.extend(compression_report.failures);
    ForecastExperiment {
        config: config.clone(),
        forecast: average_over_seeds(&forecast_report.records),
        compression: compression_report.records,
        failures,
    }
}

impl ForecastExperiment {
    /// A partial-grid note listing failed tasks, or the empty string when
    /// every task completed. Appended to the renders so a report built
    /// from a degraded grid says so.
    fn failure_note(&self) -> String {
        match failure_summary(&self.failures) {
            Some(s) => format!("\nPartial grid: {s}\n"),
            None => String::new(),
        }
    }

    /// Baseline metrics for a (dataset, model).
    fn baseline(&self, dataset: DatasetKind, model: ModelKind) -> Option<MetricSet> {
        self.forecast
            .iter()
            .find(|r| r.dataset == dataset && r.model == model && r.method.is_none())
            .map(|r| r.metrics)
    }

    /// TFE (RMSE-based, Eq. 2) for a transformed cell.
    pub(crate) fn tfe_of(
        &self,
        dataset: DatasetKind,
        model: ModelKind,
        method: Method,
        epsilon: f64,
    ) -> Option<f64> {
        let base = self.baseline(dataset, model)?;
        let rec = self.forecast.iter().find(|r| {
            r.dataset == dataset
                && r.model == model
                && r.method == Some(method)
                && (r.epsilon - epsilon).abs() < 1e-9
        })?;
        Some(tfe(base.rmse, rec.metrics.rmse))
    }

    /// TE (NRMSE) of a compression cell.
    pub(crate) fn te_of(&self, dataset: DatasetKind, method: Method, epsilon: f64) -> Option<f64> {
        self.compression
            .iter()
            .find(|r| {
                r.dataset == dataset && r.method == method && (r.epsilon - epsilon).abs() < 1e-9
            })
            .map(|r| r.te_nrmse)
    }

    /// CR of a compression cell.
    pub(crate) fn cr_of(&self, dataset: DatasetKind, method: Method, epsilon: f64) -> Option<f64> {
        self.compression
            .iter()
            .find(|r| {
                r.dataset == dataset && r.method == method && (r.epsilon - epsilon).abs() < 1e-9
            })
            .map(|r| r.cr)
    }

    /// Table 2: baseline accuracy per model per dataset.
    pub fn render_table2(&self) -> String {
        let mut t = TextTable::new(&[
            "Model", "Metric", "ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind",
        ]);
        for &model in &self.config.models {
            for (name, pick) in [("R", 0usize), ("RSE", 1), ("RMSE", 2), ("NRMSE", 3)] {
                let mut cells = vec![model.name().to_string(), name.to_string()];
                for &d in &[
                    DatasetKind::ETTm1,
                    DatasetKind::ETTm2,
                    DatasetKind::Solar,
                    DatasetKind::Weather,
                    DatasetKind::ElecDem,
                    DatasetKind::Wind,
                ] {
                    cells.push(match self.baseline(d, model) {
                        Some(m) => {
                            let v = match pick {
                                0 => m.r,
                                1 => m.rse,
                                2 => m.rmse,
                                _ => m.nrmse,
                            };
                            f(v, 3)
                        }
                        None => "-".to_string(),
                    });
                }
                t.row(cells);
            }
        }
        format!("Table 2: baseline results (scaled metrics)\n{}{}", t.render(), self.failure_note())
    }

    /// Figure 4 data: per (dataset, method, ε) — TE, mean TFE across
    /// models, and the 95% CI half-width.
    pub fn fig4_points(&self) -> Vec<(DatasetKind, Method, f64, f64, f64, f64)> {
        let mut out = Vec::new();
        for &d in &self.config.datasets {
            for &m in &self.config.methods {
                for &e in &self.config.error_bounds {
                    let Some(te) = self.te_of(d, m, e) else { continue };
                    let tfes: Vec<f64> = self
                        .config
                        .models
                        .iter()
                        .filter_map(|&model| self.tfe_of(d, model, m, e))
                        .collect();
                    if tfes.is_empty() {
                        continue;
                    }
                    out.push((d, m, e, te, mean(&tfes), ci95_half_width(&tfes)));
                }
            }
        }
        out
    }

    /// Figure 4 rendering.
    pub fn render_fig4(&self) -> String {
        let mut t = TextTable::new(&["Dataset", "Method", "EB", "TE", "mean TFE", "95% CI"]);
        for (d, m, e, te, tfe, ci) in self.fig4_points() {
            t.row(vec![
                d.name().to_string(),
                m.name().to_string(),
                f(e, 2),
                f(te, 4),
                f(tfe, 4),
                format!("±{}", f(ci, 4)),
            ]);
        }
        format!(
            "Figure 4: TFE vs TE (mean ± 95% CI across models)\n{}{}",
            t.render(),
            self.failure_note()
        )
    }

    /// Figure 6 data: mean TFE per (dataset, model), averaged over methods
    /// and error bounds up to `cap` per dataset.
    fn fig6_means(&self, caps: &[(DatasetKind, f64)]) -> Vec<(DatasetKind, ModelKind, f64)> {
        let mut out = Vec::new();
        for &d in &self.config.datasets {
            let cap = caps.iter().find(|(k, _)| *k == d).map(|(_, c)| *c).unwrap_or(0.2);
            for &model in &self.config.models {
                let tfes: Vec<f64> = self
                    .config
                    .methods
                    .iter()
                    .flat_map(|&m| {
                        self.config
                            .error_bounds
                            .iter()
                            .filter(|&&e| e <= cap + 1e-9)
                            .filter_map(move |&e| self.tfe_of(d, model, m, e))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if !tfes.is_empty() {
                    out.push((d, model, mean(&tfes)));
                }
            }
        }
        out
    }

    /// Figure 6 rendering.
    pub fn render_fig6(&self, caps: &[(DatasetKind, f64)]) -> String {
        let mut t = TextTable::new(&["Dataset", "Model", "mean TFE"]);
        for (d, m, v) in self.fig6_means(caps) {
            t.row(vec![d.name().to_string(), m.name().to_string(), f(v, 4)]);
        }
        format!("Figure 6: average TFE per forecasting model\n{}", t.render())
    }

    /// Table 7: best model per dataset by baseline NRMSE and by mean TFE.
    fn table7(&self, caps: &[(DatasetKind, f64)]) -> Vec<(DatasetKind, ModelKind, ModelKind)> {
        let fig6 = self.fig6_means(caps);
        self.config
            .datasets
            .iter()
            .filter_map(|&d| {
                let best_nrmse = self
                    .config
                    .models
                    .iter()
                    .filter_map(|&m| self.baseline(d, m).map(|b| (m, b.nrmse)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))?
                    .0;
                let best_tfe = fig6
                    .iter()
                    .filter(|(k, _, _)| *k == d)
                    .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))?
                    .1;
                Some((d, best_nrmse, best_tfe))
            })
            .collect()
    }

    /// Table 7 rendering.
    pub fn render_table7(&self, caps: &[(DatasetKind, f64)]) -> String {
        let mut t = TextTable::new(&["Dataset", "best by NRMSE", "best by TFE"]);
        for (d, by_nrmse, by_tfe) in self.table7(caps) {
            t.row(vec![
                d.name().to_string(),
                by_nrmse.name().to_string(),
                by_tfe.name().to_string(),
            ]);
        }
        format!("Table 7: best models based on NRMSE and TFE\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_experiment() -> ForecastExperiment {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.05, 0.4];
        cfg.models = vec![ModelKind::GBoost, ModelKind::Arima];
        run(&cfg)
    }

    #[test]
    fn end_to_end_tables_render() {
        let exp = small_experiment();
        let d = DatasetKind::ETTm1;
        assert!(exp.baseline(d, ModelKind::GBoost).is_some());
        assert!(exp.tfe_of(d, ModelKind::GBoost, Method::Pmc, 0.05).is_some());
        assert!(exp.te_of(d, Method::Pmc, 0.4).is_some());
        let caps = [(d, 0.4)];
        assert!(exp.render_table2().contains("GBoost"));
        assert!(exp.render_fig4().contains("TFE"));
        assert!(exp.render_fig6(&caps).contains("Arima"));
        assert!(exp.render_table7(&caps).contains("best by"));
        assert_eq!(exp.table7(&caps).len(), 1);
    }

    #[test]
    fn fig4_points_cover_grid() {
        let exp = small_experiment();
        let pts = exp.fig4_points();
        // 1 dataset x 3 methods x 2 eps
        assert_eq!(pts.len(), 6);
        for (_, _, _, te, tfe, _) in pts {
            assert!(te >= 0.0);
            assert!(tfe.is_finite());
        }
    }
}
