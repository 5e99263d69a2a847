//! The target is the only channel any output reads: every grid run over
//! data with auxiliary channels emits the same CSVs, Gorilla ratios and
//! characteristics rows as the same run over the target alone.

use evalimplsts::evalcore::experiments::characteristics_exp;
use evalimplsts::evalcore::experiments::forecasting_exp::ForecastExperiment;
use evalimplsts::evalcore::grid::GridConfig;
use evalimplsts::evalcore::results::{average_over_seeds, compression_csv, forecast_csv};
use evalimplsts::evalcore::{Engine, GridContext, GridReport};
use evalimplsts::forecast::ModelKind;
use evalimplsts::tsdata::datasets::DatasetKind;

/// The records of a report that lost no task.
fn complete<R>(report: GridReport<R>) -> Vec<R> {
    assert!(report.failures.is_empty(), "failed tasks: {:?}", report.failures);
    assert!(!report.records.is_empty(), "a grid without records");
    report.records
}

#[derive(Debug, PartialEq)]
struct Outputs {
    compression: String,
    gorilla: Vec<(DatasetKind, f64)>,
    forecast: String,
    retrain: String,
    characteristics: Vec<String>,
}

fn outputs(channels: Option<usize>) -> Outputs {
    let mut config = GridConfig::smoke();
    config.datasets = vec![DatasetKind::ETTm1, DatasetKind::Solar];
    config.len = Some(1_200);
    config.channels = channels;
    config.error_bounds = vec![0.05, 0.4];
    config.models = vec![ModelKind::GBoost, ModelKind::DLinear];
    let ctx = GridContext::new(config.clone());
    let engine = Engine::new(&ctx);
    let forecast = complete(engine.forecast_report());
    let compression = complete(engine.compression_report());
    let compression_text = compression_csv(&compression);
    let experiment = ForecastExperiment {
        config,
        forecast: average_over_seeds(&forecast),
        compression,
        failures: Vec::new(),
    };
    Outputs {
        compression: compression_text,
        gorilla: complete(engine.gorilla_report()),
        forecast: forecast_csv(&forecast),
        retrain: forecast_csv(&complete(engine.retrain_report())),
        characteristics: characteristics_exp::run(&experiment)
            .rows
            .iter()
            .map(|row| format!("{row:?}"))
            .collect(),
    }
}

#[test]
fn auxiliary_channels_never_reach_an_output() {
    let target_only = outputs(None);
    // 2 datasets x 3 methods x 2 error bounds.
    assert_eq!(target_only.characteristics.len(), 12);
    assert_eq!(outputs(Some(4)), target_only);
}
