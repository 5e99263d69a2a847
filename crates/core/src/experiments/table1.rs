//! Table 1 — descriptive statistics of the six datasets (LEN, FREQ, MEAN,
//! MIN, MAX, Q1, Q3, rIQD), computed on the synthetic recreations and
//! printed next to the paper's reference values.

use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions, ALL_DATASETS};
use tsdata::stats::{summarize, Summary};

use super::fmt::{f, TextTable};

/// One Table-1 row: measured statistics of the generated dataset plus the
/// paper's published values for comparison.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Statistics measured on the generated series.
    pub measured: Summary,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per dataset.
    pub rows: Vec<Table1Row>,
}

/// Computes Table 1. `len` overrides the series length (`None` = the
/// paper's full lengths).
pub fn run(len: Option<usize>, seed: u64) -> Table1 {
    let _span = telemetry::span("experiment.table1", &[]);
    let rows = ALL_DATASETS
        .iter()
        .map(|&dataset| {
            let series = generate_univariate(dataset, GenOptions { len, channels: None, seed });
            Table1Row { dataset, measured: summarize(series.values()) }
        })
        .collect();
    Table1 { rows }
}

impl Table1 {
    /// Renders measured-vs-paper statistics.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "Dataset",
            "LEN",
            "FREQ",
            "MEAN",
            "MIN",
            "MAX",
            "Q1",
            "Q3",
            "rIQD",
            "| paper: MEAN",
            "Q1",
            "Q3",
            "rIQD",
        ]);
        for row in &self.rows {
            let p = row.dataset.paper_stats();
            let m = &row.measured;
            t.row(vec![
                p.name.to_string(),
                m.len.to_string(),
                p.freq.to_string(),
                f(m.mean, 2),
                f(m.min, 1),
                f(m.max, 1),
                f(m.q1, 1),
                f(m.q3, 1),
                format!("{}%", f(m.riqd, 0)),
                format!("| {}", f(p.mean, 2)),
                f(p.q1, 1),
                f(p.q3, 1),
                format!("{}%", f(p.riqd, 0)),
            ]);
        }
        format!("Table 1: dataset statistics (measured vs paper)\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_datasets_and_renders() {
        let t = run(Some(4000), 7);
        assert_eq!(t.rows.len(), 6);
        let s = t.render();
        for name in ["ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind"] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn riqd_ordering_reproduced() {
        // The qualitative Table-1 finding the analysis leans on: Weather's
        // tiny rIQD vs Solar's huge one.
        let t = run(Some(8000), 7);
        let get = |k: DatasetKind| {
            t.rows.iter().find(|r| r.dataset == k).expect("all datasets present").measured.riqd
        };
        assert!(get(DatasetKind::Solar) > 150.0);
        assert!(get(DatasetKind::Weather) < 20.0);
        assert!(get(DatasetKind::Solar) > get(DatasetKind::Weather));
    }
}
