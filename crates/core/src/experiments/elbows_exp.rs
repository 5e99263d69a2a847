//! Table 5 — inflection-point ("elbow") analysis (§4.3.2): for every
//! (dataset, method, model), Kneedle locates the TE at which TFE starts
//! rising rapidly; the table reports the median EB/TE/CR/TFE at the elbow
//! across models, plus the average over datasets.

use analysis::kneedle::{kneedle, Shape};
use compression::Method;
use tsdata::datasets::DatasetKind;

use super::fmt::{f, TextTable};
use super::forecasting_exp::ForecastExperiment;
use crate::results::median;

/// Elbow metrics for one (dataset, method): medians across models.
#[derive(Debug, Clone, Copy)]
pub struct ElbowCell {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Method.
    pub method: Method,
    /// Median error bound at the elbow.
    pub eb: f64,
    /// Median TE at the elbow.
    pub te: f64,
    /// Median CR at the elbow.
    pub cr: f64,
    /// Median TFE at the elbow.
    pub tfe: f64,
}

/// The Table-5 reproduction.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Cells per (dataset, method).
    pub cells: Vec<ElbowCell>,
}

/// Locates elbows on the TFE-vs-TE curves of an evaluated grid.
pub fn run(exp: &ForecastExperiment) -> Table5 {
    let _span = telemetry::span("experiment.elbows", &[]);
    let mut cells = Vec::new();
    for &dataset in &exp.config.datasets {
        for &method in &exp.config.methods {
            let mut ebs = Vec::new();
            let mut tes = Vec::new();
            let mut crs = Vec::new();
            let mut tfes = Vec::new();
            for &model in &exp.config.models {
                // Build the (TE, TFE) curve over error bounds.
                let mut curve: Vec<(f64, f64, f64)> = exp
                    .config
                    .error_bounds
                    .iter()
                    .filter_map(|&e| {
                        let te = exp.te_of(dataset, method, e)?;
                        let tfe = exp.tfe_of(dataset, model, method, e)?;
                        Some((e, te, tfe))
                    })
                    .collect();
                curve.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite TE"));
                curve.dedup_by(|a, b| (a.1 - b.1).abs() < 1e-12);
                if curve.len() < 3 {
                    continue;
                }
                let xs: Vec<f64> = curve.iter().map(|c| c.1).collect();
                let ys: Vec<f64> = curve.iter().map(|c| c.2).collect();
                let Some(k) = kneedle(&xs, &ys, Shape::ConvexIncreasing, 1.0) else {
                    continue;
                };
                let (eb, te, tfe) = curve[k];
                ebs.push(eb);
                tes.push(te);
                tfes.push(tfe);
                if let Some(cr) = exp.cr_of(dataset, method, eb) {
                    crs.push(cr);
                }
            }
            if ebs.is_empty() {
                continue;
            }
            cells.push(ElbowCell {
                dataset,
                method,
                eb: median(&ebs),
                te: median(&tes),
                cr: median(&crs),
                tfe: median(&tfes),
            });
        }
    }
    Table5 { cells }
}

impl Table5 {
    /// Per-method averages across datasets (the paper's AVG column).
    fn averages(&self) -> Vec<(Method, f64, f64, f64, f64)> {
        let methods: Vec<Method> = {
            let mut ms: Vec<Method> = self.cells.iter().map(|c| c.method).collect();
            ms.dedup();
            let mut unique = Vec::new();
            for m in ms {
                if !unique.contains(&m) {
                    unique.push(m);
                }
            }
            unique
        };
        methods
            .into_iter()
            .map(|m| {
                let group: Vec<&ElbowCell> = self.cells.iter().filter(|c| c.method == m).collect();
                let n = group.len() as f64;
                (
                    m,
                    group.iter().map(|c| c.eb).sum::<f64>() / n,
                    group.iter().map(|c| c.te).sum::<f64>() / n,
                    group.iter().map(|c| c.cr).sum::<f64>() / n,
                    group.iter().map(|c| c.tfe).sum::<f64>() / n,
                )
            })
            .collect()
    }

    /// Per-dataset elbow EB caps for Figure 6 (mean over methods).
    pub fn eb_caps(&self) -> Vec<(DatasetKind, f64)> {
        let mut datasets: Vec<DatasetKind> = Vec::new();
        for c in &self.cells {
            if !datasets.contains(&c.dataset) {
                datasets.push(c.dataset);
            }
        }
        datasets
            .into_iter()
            .map(|d| {
                let ebs: Vec<f64> =
                    self.cells.iter().filter(|c| c.dataset == d).map(|c| c.eb).collect();
                (d, ebs.iter().sum::<f64>() / ebs.len() as f64)
            })
            .collect()
    }

    /// Renders the table with the AVG column.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Method", "Dataset", "EB", "TE", "CR", "TFE"]);
        for c in &self.cells {
            t.row(vec![
                c.method.name().to_string(),
                c.dataset.name().to_string(),
                f(c.eb, 2),
                f(c.te, 3),
                f(c.cr, 1),
                f(c.tfe, 3),
            ]);
        }
        let mut out = format!("Table 5: elbows' median EB, TE, CR and TFE\n{}", t.render());
        out.push_str("\nAverages across datasets:\n");
        for (m, eb, te, cr, tfe) in self.averages() {
            out.push_str(&format!(
                "  {:<6} EB={} TE={} CR={} TFE={}\n",
                m.name(),
                f(eb, 2),
                f(te, 3),
                f(cr, 2),
                f(tfe, 3)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use forecast::model::ModelKind;

    #[test]
    fn elbows_found_on_smoke_grid() {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
        cfg.models = vec![ModelKind::GBoost];
        let exp = super::super::forecasting_exp::run(&cfg);
        let t5 = run(&exp);
        assert!(!t5.cells.is_empty(), "no elbows detected");
        for c in &t5.cells {
            assert!(c.eb > 0.0 && c.eb <= 0.8);
            assert!(c.cr > 0.0);
        }
        let avg = t5.averages();
        assert!(!avg.is_empty());
        let caps = t5.eb_caps();
        assert_eq!(caps.len(), 1);
        assert!(t5.render().contains("Table 5"));
    }
}
