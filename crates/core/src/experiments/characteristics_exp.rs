//! The characteristics analyses of §4.3.1 and §4.3.3:
//!
//! * **Figure 5** — a GBoost model is trained to predict TFE from the 42
//!   characteristic differences (decompressed − original), and TreeSHAP
//!   ranks the characteristics.
//! * **Table 4** — Spearman correlation of each characteristic difference
//!   to TFE.
//! * **Table 6** — mean (sd) relative difference (%) of the five key
//!   characteristics (MKLS, MLS, SACF1, MVS, URPP) over cells with
//!   TFE ≤ 0.1.

use analysis::correlation::spearman;
use analysis::features::{extract, FeatureOptions, FeatureVector, FEATURE_NAMES, NUM_FEATURES};
use analysis::shap::mean_abs_shap;
use compression::Method;
use forecast::gboost::{GbmConfig, GbmRegressor};
use tsdata::datasets::DatasetKind;

use super::fmt::{f, TextTable};
use super::forecasting_exp::ForecastExperiment;
use crate::cache::{GridContext, Subset};
use crate::engine::{Engine, GridTask, TaskCoord};
use crate::results::mean;
use crate::scenario::ScenarioError;

/// The five characteristics of Table 6.
const TABLE6_FEATURES: [&str; 5] =
    ["max_kl_shift", "max_level_shift", "seas_acf1", "max_var_shift", "unitroot_pp"];

/// One analysed cell.
#[derive(Debug, Clone)]
pub struct CharRow {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Method.
    pub method: Method,
    /// Error bound.
    pub epsilon: f64,
    /// Characteristic differences (decompressed − original).
    pub diffs: [f64; NUM_FEATURES],
    /// Relative differences in percent.
    pub rel_diffs: [f64; NUM_FEATURES],
    /// Mean TFE across models.
    pub tfe: f64,
}

/// The combined characteristics experiment.
#[derive(Debug, Clone)]
pub struct CharacteristicsExperiment {
    /// Per-cell rows.
    pub rows: Vec<CharRow>,
    /// Mean |SHAP| per characteristic (Figure 5 ranking input).
    pub shap_importance: Vec<(String, f64)>,
    /// Spearman correlation of each characteristic difference to TFE.
    pub correlations: Vec<(String, f64)>,
    /// The TFE-predictor's training R².
    pub r2: f64,
}

/// A per-(dataset, method, ε) cell scheduled on the task engine: the
/// decompressed series is the full-series [`GridContext::transform`],
/// which each cell asks for once and which is not memoized, and its
/// characteristics are diffed against the pre-extracted original feature
/// vector.
struct CellTask<'a> {
    dataset: DatasetKind,
    method: Method,
    epsilon: f64,
    original: &'a FeatureVector,
    opts: FeatureOptions,
    tfe: f64,
}

impl GridTask for CellTask<'_> {
    type Output = CharRow;

    fn coord(&self) -> TaskCoord {
        TaskCoord {
            method: Some(self.method),
            epsilon: Some(self.epsilon),
            ..TaskCoord::dataset(self.dataset)
        }
    }

    fn run(&self, ctx: &GridContext) -> Result<CharRow, ScenarioError> {
        let t = ctx.transform(self.dataset, Subset::Full, self.method, self.epsilon)?;
        let transformed = extract(t.series.target().values(), self.opts);
        Ok(CharRow {
            dataset: self.dataset,
            method: self.method,
            epsilon: self.epsilon,
            diffs: transformed.diff(self.original),
            rel_diffs: transformed.relative_diff_pct(self.original),
            tfe: self.tfe,
        })
    }
}

/// Runs the analysis on an already-evaluated grid.
pub fn run(exp: &ForecastExperiment) -> CharacteristicsExperiment {
    let _span = telemetry::span("experiment.characteristics", &[]);
    let ctx = GridContext::new(exp.config.clone());

    // Original (uncompressed) feature vectors per dataset.
    let mut originals: Vec<(DatasetKind, FeatureVector, FeatureOptions)> = Vec::new();
    for &dataset in &exp.config.datasets {
        let Ok(data) = ctx.try_dataset(dataset) else { continue };
        let target = data.series.target();
        let period = dataset.samples_per_day() as usize;
        let opts = FeatureOptions {
            period: (period >= 2 && target.len() >= 2 * period).then_some(period),
            shift_window: 48.min(target.len() / 4).max(2),
            cap: Some(8_000),
        };
        originals.push((dataset, extract(target.values(), opts), opts));
    }

    // Enumerate the analysable cells — those with at least one TFE on the
    // evaluated grid — and schedule them on the engine; a cell whose
    // transform fails is logged and skipped rather than aborting.
    let mut tasks: Vec<CellTask<'_>> = Vec::new();
    for (dataset, original, opts) in &originals {
        for &method in &exp.config.methods {
            for &epsilon in &exp.config.error_bounds {
                let tfes: Vec<f64> = exp
                    .config
                    .models
                    .iter()
                    .filter_map(|&m| exp.tfe_of(*dataset, m, method, epsilon))
                    .collect();
                if tfes.is_empty() {
                    continue;
                }
                tasks.push(CellTask {
                    dataset: *dataset,
                    method,
                    epsilon,
                    original,
                    opts: *opts,
                    tfe: mean(&tfes),
                });
            }
        }
    }
    let rows: Vec<CharRow> =
        Engine::new(&ctx).run_report(&tasks).into_records_logged("characteristics cells");

    // GBoost TFE predictor + TreeSHAP importance.
    let n = rows.len();
    let (shap_importance, r2) = if n >= 8 {
        let mut x = Vec::with_capacity(n * NUM_FEATURES);
        let mut y = Vec::with_capacity(n);
        for r in &rows {
            x.extend_from_slice(&r.diffs);
            y.push(r.tfe);
        }
        let model = GbmRegressor::fit(
            &x,
            &y,
            NUM_FEATURES,
            GbmConfig { n_estimators: 80, ..Default::default() },
        );
        let my = mean(&y);
        let mut sse = 0.0;
        let mut sst = 0.0;
        for (i, &target) in y.iter().enumerate() {
            let p = model.predict(&x[i * NUM_FEATURES..(i + 1) * NUM_FEATURES]);
            sse += (target - p) * (target - p);
            sst += (target - my) * (target - my);
        }
        let r2 = if sst < 1e-12 { 1.0 } else { (1.0 - sse / sst).max(0.0) };
        let importance = mean_abs_shap(&model, &x, n);
        let ranked: Vec<(String, f64)> =
            FEATURE_NAMES.iter().zip(importance).map(|(name, v)| (name.to_string(), v)).collect();
        (ranked, r2)
    } else {
        (FEATURE_NAMES.iter().map(|n| (n.to_string(), 0.0)).collect(), 0.0)
    };

    // Spearman correlations.
    let tfes: Vec<f64> = rows.iter().map(|r| r.tfe).collect();
    let correlations: Vec<(String, f64)> = (0..NUM_FEATURES)
        .map(|i| {
            let xs: Vec<f64> = rows.iter().map(|r| r.diffs[i]).collect();
            (FEATURE_NAMES[i].to_string(), if n >= 3 { spearman(&xs, &tfes) } else { 0.0 })
        })
        .collect();

    CharacteristicsExperiment { rows, shap_importance, correlations, r2 }
}

impl CharacteristicsExperiment {
    /// Figure 5: characteristics ranked by mean |SHAP|.
    fn top_shap(&self, k: usize) -> Vec<(String, f64)> {
        let mut v = self.shap_importance.clone();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        v.truncate(k);
        v
    }

    /// Table 4: characteristics ranked by |Spearman correlation| to TFE.
    fn top_correlations(&self, k: usize) -> Vec<(String, f64)> {
        let mut v = self.correlations.clone();
        v.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        v.truncate(k);
        v
    }

    /// Table 6: mean (sd) of relative differences (%) of the five key
    /// characteristics over rows with TFE ≤ 0.1, per (dataset, method).
    #[allow(clippy::type_complexity)]
    fn table6(&self) -> Vec<(DatasetKind, Method, [(f64, f64); 5])> {
        let mut keys: Vec<(DatasetKind, Method)> = Vec::new();
        for r in &self.rows {
            if !keys.contains(&(r.dataset, r.method)) {
                keys.push((r.dataset, r.method));
            }
        }
        keys.into_iter()
            .filter_map(|(d, m)| {
                let group: Vec<&CharRow> = self
                    .rows
                    .iter()
                    .filter(|r| r.dataset == d && r.method == m && r.tfe <= 0.1)
                    .collect();
                if group.is_empty() {
                    return None;
                }
                let mut stats = [(0.0, 0.0); 5];
                for (slot, name) in TABLE6_FEATURES.iter().enumerate() {
                    let idx = FEATURE_NAMES
                        .iter()
                        .position(|n| n == name)
                        .expect("table-6 names are canonical");
                    // Clamp the zero-reference sentinel so means stay
                    // readable.
                    let vals: Vec<f64> = group.iter().map(|r| r.rel_diffs[idx].min(1e4)).collect();
                    let mu = mean(&vals);
                    let sd = (vals.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>()
                        / vals.len() as f64)
                        .sqrt();
                    stats[slot] = (mu, sd);
                }
                Some((d, m, stats))
            })
            .collect()
    }

    /// Figure 5 rendering.
    pub fn render_fig5(&self, k: usize) -> String {
        let mut t = TextTable::new(&["Rank", "Characteristic", "mean |SHAP|"]);
        for (i, (name, v)) in self.top_shap(k).into_iter().enumerate() {
            t.row(vec![(i + 1).to_string(), name, f(v, 5)]);
        }
        format!(
            "Figure 5: top characteristics by SHAP (GBoost TFE-predictor R2 = {})\n{}",
            f(self.r2, 3),
            t.render()
        )
    }

    /// Table 4 rendering.
    pub fn render_table4(&self, k: usize) -> String {
        let mut t = TextTable::new(&["Characteristic", "Spearman to TFE"]);
        for (name, v) in self.top_correlations(k) {
            t.row(vec![name, f(v, 2)]);
        }
        format!("Table 4: top characteristics by correlation to TFE\n{}", t.render())
    }

    /// Table 6 rendering.
    pub fn render_table6(&self) -> String {
        let mut t = TextTable::new(&["Dataset", "Method", "MKLS", "MLS", "SACF1", "MVS", "URPP"]);
        for (d, m, stats) in self.table6() {
            let mut cells = vec![d.name().to_string(), m.name().to_string()];
            for (mu, sd) in stats {
                cells.push(format!("{} ({})", f(mu, 1), f(sd, 1)));
            }
            t.row(cells);
        }
        format!(
            "Table 6: mean (sd) relative difference (%) of key characteristics, TFE <= 0.1\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use forecast::model::ModelKind;

    #[test]
    fn characteristics_pipeline_end_to_end() {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.01, 0.05, 0.1, 0.3, 0.6];
        cfg.models = vec![ModelKind::GBoost];
        let exp = super::super::forecasting_exp::run(&cfg);
        let chars = run(&exp);
        // 1 dataset x 3 methods x 5 eps = 15 rows
        assert_eq!(chars.rows.len(), 15);
        for r in &chars.rows {
            assert!(r.tfe.is_finite());
            assert!(r.diffs.iter().all(|d| d.is_finite()));
        }
        let top = chars.top_shap(10);
        assert_eq!(top.len(), 10);
        assert!(top[0].1 >= top[9].1);
        let corr = chars.top_correlations(10);
        assert!(corr[0].1.abs() <= 1.0);
        assert!(chars.render_fig5(5).contains("SHAP"));
        assert!(chars.render_table4(5).contains("Spearman"));
        let t6 = chars.render_table6();
        assert!(t6.contains("MKLS"));
    }
}
