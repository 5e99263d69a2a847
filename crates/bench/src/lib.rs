//! # bench — the reproduction harness
//!
//! The `repro` binary regenerates every table and figure from the paper
//! (see DESIGN.md §3 for the index); the Criterion benches under
//! `benches/` measure codec, kernel, inference, artifact, store, serving
//! and telemetry costs, each writing a `BENCH_*.json` row.
//!
//! This library holds the argument parsing and experiment-selection logic
//! so it can be unit-tested.

use evalcore::grid::GridConfig;

/// Which experiment(s) to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: dataset statistics.
    Table1,
    /// Figure 1: compressor outputs on a segment.
    Fig1,
    /// Figure 2: TE and CR per error bound (+ GORILLA baseline).
    Fig2,
    /// Figure 3: segment counts.
    Fig3,
    /// Table 3: CR = θ1·TE + θ0 regressions.
    Table3,
    /// Table 2: baseline forecasting accuracy.
    Table2,
    /// Figure 4: TFE vs TE.
    Fig4,
    /// Figure 5: SHAP characteristic ranking.
    Fig5,
    /// Table 4: Spearman correlations to TFE.
    Table4,
    /// Table 5: elbow analysis.
    Table5,
    /// Table 6: key-characteristic relative differences.
    Table6,
    /// Figure 6: average TFE per model.
    Fig6,
    /// Table 7: best models by NRMSE and TFE.
    Table7,
    /// Figure 7: retraining on decompressed data.
    Fig7,
    /// §4.4.1 trend/remainder decomposition impact.
    Decomp,
    /// The full §4.4.1 retrain grid (every configured cell retrains its
    /// model on decompressed data). Opt-in: expensive, so `all` skips it.
    Retrain,
    /// Everything, sharing one grid evaluation.
    All,
}

/// All individual experiments (excludes `All`, and `Retrain`, which is
/// opt-in because every one of its grid cells retrains a model).
pub const ALL_EXPERIMENTS: [Experiment; 15] = [
    Experiment::Table1,
    Experiment::Fig1,
    Experiment::Fig2,
    Experiment::Fig3,
    Experiment::Table3,
    Experiment::Table2,
    Experiment::Fig4,
    Experiment::Fig5,
    Experiment::Table4,
    Experiment::Table5,
    Experiment::Table6,
    Experiment::Fig6,
    Experiment::Table7,
    Experiment::Fig7,
    Experiment::Decomp,
];

impl Experiment {
    /// Parses an experiment name (case-insensitive).
    fn parse(s: &str) -> Option<Experiment> {
        Some(match s.to_ascii_lowercase().as_str() {
            "table1" => Experiment::Table1,
            "fig1" => Experiment::Fig1,
            "fig2" => Experiment::Fig2,
            "fig3" => Experiment::Fig3,
            "table3" => Experiment::Table3,
            "table2" => Experiment::Table2,
            "fig4" => Experiment::Fig4,
            "fig5" => Experiment::Fig5,
            "table4" => Experiment::Table4,
            "table5" => Experiment::Table5,
            "table6" => Experiment::Table6,
            "fig6" => Experiment::Fig6,
            "table7" => Experiment::Table7,
            "fig7" => Experiment::Fig7,
            "decomp" => Experiment::Decomp,
            "retrain" => Experiment::Retrain,
            "all" => Experiment::All,
            _ => return None,
        })
    }
}

/// Run-scale presets for the repro binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke run (CI-friendly).
    Quick,
    /// The default laptop-scale reproduction.
    Default,
    /// Paper-scale (full lengths, all seeds; hours of compute).
    Paper,
}

/// Parsed command line for the repro binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiments to run.
    pub experiments: Vec<Experiment>,
    /// Run scale.
    pub scale: Scale,
    /// Optional dataset-length override.
    pub len: Option<usize>,
    /// Optional seed override.
    pub seed: Option<u64>,
    /// Directory to write CSV dumps of the grid results into.
    pub csv_dir: Option<String>,
    /// Artifact-store directory: fitted models are checkpointed here and
    /// loaded back on later runs with the same configuration.
    pub artifacts: Option<String>,
    /// File to write the Prometheus text-format metrics dump into at the
    /// end of the run.
    pub metrics: Option<String>,
    /// File to write the Chrome trace-event JSON into at the end of the
    /// run (open in `about:tracing` or Perfetto).
    pub trace: Option<String>,
    /// Whether `--store` was passed: serve every transform from the
    /// chunked store instead of in-memory series (byte-identical results;
    /// see DESIGN.md §12).
    pub store: bool,
    /// Chaos-schedule seed: inject deterministic worker kills, stalls,
    /// slow-downs, and callback panics into every engine run. Outputs
    /// must stay byte-identical to a clean run (the CI chaos-smoke job
    /// cmp's the CSVs).
    pub chaos: Option<u64>,
}

/// Parses `repro` arguments. Returns `Err` with a usage string on bad
/// input.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    let usage = "usage: repro [all|table1|table2|...|fig7|decomp|retrain]... \
                 [--quick|--paper] [--len N] [--seed S] \
                 [--chaos SEED] [--csv DIR] [--artifacts DIR] \
                 [--metrics FILE] [--trace FILE] [--store]";
    let mut experiments = Vec::new();
    let mut scale = Scale::Default;
    let mut len = None;
    let mut seed = None;
    let mut csv_dir = None;
    let mut artifacts = None;
    let mut metrics = None;
    let mut trace = None;
    let mut store = false;
    let mut chaos = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--paper" => scale = Scale::Paper,
            "--len" => {
                let v = iter.next().ok_or_else(|| format!("--len needs a value\n{usage}"))?;
                len = Some(v.parse().map_err(|_| format!("bad --len {v}\n{usage}"))?);
            }
            "--seed" => {
                let v = iter.next().ok_or_else(|| format!("--seed needs a value\n{usage}"))?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}\n{usage}"))?);
            }
            "--csv" => {
                let v = iter.next().ok_or_else(|| format!("--csv needs a directory\n{usage}"))?;
                csv_dir = Some(v);
            }
            "--artifacts" => {
                let v =
                    iter.next().ok_or_else(|| format!("--artifacts needs a directory\n{usage}"))?;
                artifacts = Some(v);
            }
            "--store" => store = true,
            "--chaos" => {
                let v = iter.next().ok_or_else(|| format!("--chaos needs a seed\n{usage}"))?;
                chaos = Some(v.parse().map_err(|_| format!("bad --chaos {v}\n{usage}"))?);
            }
            "--metrics" => {
                let v = iter.next().ok_or_else(|| format!("--metrics needs a file\n{usage}"))?;
                metrics = Some(v);
            }
            "--trace" => {
                let v = iter.next().ok_or_else(|| format!("--trace needs a file\n{usage}"))?;
                trace = Some(v);
            }
            other => {
                let e = Experiment::parse(other)
                    .ok_or_else(|| format!("unknown experiment {other}\n{usage}"))?;
                experiments.push(e);
            }
        }
    }
    if experiments.is_empty() {
        experiments.push(Experiment::All);
    }
    Ok(Cli { experiments, scale, len, seed, csv_dir, artifacts, metrics, trace, store, chaos })
}

/// Builds the grid configuration for a scale.
pub fn config_for(cli: &Cli) -> GridConfig {
    let mut cfg = match cli.scale {
        Scale::Quick => {
            let mut c = GridConfig::smoke();
            // The quick scale still covers all datasets and a model pair.
            c.datasets = tsdata::datasets::ALL_DATASETS.to_vec();
            c.len = Some(2_000);
            c.input_len = 48;
            c.horizon = 12;
            c.error_bounds = vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.8];
            c
        }
        Scale::Default => GridConfig::default_repro(),
        Scale::Paper => GridConfig::paper(),
    };
    if let Some(len) = cli.len {
        cfg.len = Some(len);
    }
    if let Some(seed) = cli.seed {
        cfg.data_seed = seed;
    }
    cfg.artifacts = cli.artifacts.as_ref().map(std::path::PathBuf::from);
    cfg.store_backed = cli.store;
    cfg.chaos_seed = cli.chaos;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_experiments_and_flags() {
        let cli = parse("table1 fig2 --quick --len 500 --seed 9 --csv out").unwrap();
        assert_eq!(cli.experiments, vec![Experiment::Table1, Experiment::Fig2]);
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.len, Some(500));
        assert_eq!(cli.seed, Some(9));
        assert_eq!(cli.csv_dir.as_deref(), Some("out"));
    }

    #[test]
    fn default_is_all() {
        let cli = parse("").unwrap();
        assert_eq!(cli.experiments, vec![Experiment::All]);
        assert_eq!(cli.scale, Scale::Default);
    }

    #[test]
    fn bad_input_rejected() {
        assert!(parse("tableX").is_err());
        assert!(parse("--len").is_err());
        assert!(parse("--len abc").is_err());
        assert!(parse("--csv").is_err());
    }

    #[test]
    fn every_experiment_name_round_trips() {
        for e in ALL_EXPERIMENTS {
            let name = format!("{e:?}").to_ascii_lowercase();
            assert_eq!(Experiment::parse(&name), Some(e), "{name}");
        }
        assert_eq!(Experiment::parse("all"), Some(Experiment::All));
        assert_eq!(Experiment::parse("retrain"), Some(Experiment::Retrain));
    }

    #[test]
    fn retrain_is_opt_in() {
        // `all` must not pull in the full retrain grid.
        assert!(!ALL_EXPERIMENTS.contains(&Experiment::Retrain));
        let cli = parse("retrain --quick").unwrap();
        assert_eq!(cli.experiments, vec![Experiment::Retrain]);
    }

    #[test]
    fn config_overrides_apply() {
        let cli = parse("table1 --quick --len 777 --seed 5").unwrap();
        let cfg = config_for(&cli);
        assert_eq!(cfg.len, Some(777));
        assert_eq!(cfg.data_seed, 5);
        assert_eq!(cfg.datasets.len(), 6);
        assert_eq!(cfg.artifacts, None);
    }

    #[test]
    fn batch_size_is_not_a_flag() {
        // The removed flag, spelled in two parts so that a search for it
        // finds no live use.
        let flag = concat!("--batch", "-size");
        let err = parse(&format!("table2 --quick {flag} 64")).unwrap_err();
        assert!(err.contains(&format!("unknown experiment {flag}")), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
        assert_eq!(config_for(&parse("table2 --quick").unwrap()).batch_size, 64);
    }

    #[test]
    fn chaos_flag_threads_into_config() {
        let cli = parse("table1 --quick").unwrap();
        assert_eq!(cli.chaos, None);
        assert_eq!(config_for(&cli).chaos_seed, None, "no fault injection by default");
        let cli = parse("table1 --quick --chaos 99").unwrap();
        assert_eq!(cli.chaos, Some(99));
        assert_eq!(config_for(&cli).chaos_seed, Some(99));
        assert!(parse("--chaos").is_err());
        assert!(parse("--chaos x").is_err());
    }

    #[test]
    fn shards_is_not_a_flag() {
        // The removed flag, spelled in two parts so that a search for it
        // finds no live use.
        let flag = concat!("--sha", "rds");
        let err = parse(&format!("table1 --quick {flag} 3")).unwrap_err();
        assert!(err.contains(&format!("unknown experiment {flag}")), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
    }

    #[test]
    fn artifacts_flag_threads_into_config() {
        let cli = parse("table2 --quick --artifacts store").unwrap();
        assert_eq!(cli.artifacts.as_deref(), Some("store"));
        let cfg = config_for(&cli);
        assert_eq!(cfg.artifacts.as_deref(), Some(std::path::Path::new("store")));
    }

    #[test]
    fn metrics_and_trace_flags_parse() {
        let cli = parse("table1 --quick --metrics out.prom --trace out.json").unwrap();
        assert_eq!(cli.metrics.as_deref(), Some("out.prom"));
        assert_eq!(cli.trace.as_deref(), Some("out.json"));
        assert!(parse("--metrics").is_err());
        assert!(parse("--trace").is_err());
        let cli = parse("table1").unwrap();
        assert_eq!(cli.metrics, None);
        assert_eq!(cli.trace, None);
    }

    #[test]
    fn resume_is_not_a_flag() {
        // The removed flag, spelled in two parts so that a search for it
        // finds no live use. Stored fits load whenever `--artifacts` is set.
        let flag = concat!("--res", "ume");
        let err = parse(&format!("table2 --artifacts store {flag}")).unwrap_err();
        assert!(err.contains(&format!("unknown experiment {flag}")), "{err}");
        assert!(err.contains("usage: repro"), "{err}");
        assert!(parse("--artifacts").is_err());
    }
}
