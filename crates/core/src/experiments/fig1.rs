//! Figure 1 — PMC, SWING and SZ output on a segment of ETTm1/ETTm2 at
//! error bounds 0.05 and 0.1, compared to the original series. Rendered as
//! value listings plus an ASCII sparkline per curve.

use compression::{Method, ALL_METHODS};
use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};

/// One decompressed curve of the figure.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Method that produced the curve.
    pub method: Method,
    /// Error bound used.
    pub epsilon: f64,
    /// Decompressed values.
    pub values: Vec<f64>,
}

/// The reproduced figure for one dataset.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Source dataset.
    pub dataset: DatasetKind,
    /// Original segment values.
    pub original: Vec<f64>,
    /// Decompressed curves per (method, ε).
    pub curves: Vec<Curve>,
}

/// Extracts a segment and compresses it with every method at the figure's
/// two error bounds.
pub fn run(dataset: DatasetKind, segment_len: usize, seed: u64) -> Fig1 {
    let _span = telemetry::span("experiment.fig1", &[]);
    let series = generate_univariate(
        dataset,
        GenOptions { len: Some(segment_len.max(64) * 4), channels: None, seed },
    );
    let segment =
        series.segment(segment_len, 2 * segment_len).expect("generated series covers the segment");
    let curves = ALL_METHODS
        .iter()
        .flat_map(|&method| [0.05, 0.1].map(|epsilon| (method, epsilon)))
        .map(|(method, epsilon)| {
            let (d, _) = method
                .compressor()
                .transform(&segment, epsilon)
                .expect("segment compresses cleanly");
            Curve { method, epsilon, values: d.into_values() }
        })
        .collect();
    Fig1 { dataset, original: segment.into_values(), curves }
}

/// Renders a value range as an ASCII sparkline.
fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &['.', ':', '-', '=', '+', '*', '#', '@'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

impl Fig1 {
    /// Renders the figure as sparklines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 1: compression output vs original ({}, {} points)\n",
            self.dataset.name(),
            self.original.len()
        );
        out.push_str(&format!("{:>14}  {}\n", "OR", sparkline(&self.original)));
        for c in &self.curves {
            out.push_str(&format!(
                "{:>14}  {}\n",
                format!("{}@{}", c.method.name(), c.epsilon),
                sparkline(&c.values)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::metrics::rmse;

    #[test]
    fn produces_six_curves_within_bounds() {
        let fig = run(DatasetKind::ETTm1, 128, 3);
        assert_eq!(fig.curves.len(), 6);
        for c in &fig.curves {
            assert_eq!(c.values.len(), fig.original.len());
            assert!(
                compression::find_bound_violation(&fig.original, &c.values, c.epsilon, 1e-9)
                    .is_none(),
                "{}@{} violates bound",
                c.method.name(),
                c.epsilon
            );
        }
    }

    #[test]
    fn higher_epsilon_deviates_more() {
        let fig = run(DatasetKind::ETTm2, 128, 4);
        for method in ALL_METHODS {
            let at = |eps: f64| {
                let c = fig
                    .curves
                    .iter()
                    .find(|c| c.method == method && c.epsilon == eps)
                    .expect("curve exists");
                rmse(&fig.original, &c.values)
            };
            assert!(at(0.1) >= at(0.05) * 0.5, "{}: unexpected TE inversion", method.name());
        }
    }

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with('.'));
        assert!(s.contains('@'));
    }

    #[test]
    fn render_mentions_all_methods() {
        let s = run(DatasetKind::ETTm1, 96, 5).render();
        for m in ["PMC", "SWING", "SZ", "OR"] {
            assert!(s.contains(m));
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = run(DatasetKind::ETTm1, 96, 9);
        let b = run(DatasetKind::ETTm1, 96, 9);
        assert_eq!(a.original, b.original);
    }
}
