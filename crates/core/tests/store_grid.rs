//! Store-backed grid runs must be indistinguishable from legacy in-memory
//! runs: same records, byte-identical CSVs, and one staging ingest per
//! `(dataset, subset)` regardless of how many transforms the grid asks
//! for. This is the Rust-level twin of the CI store-smoke job, which
//! `cmp`s full repro CSV outputs across the two modes.

use evalcore::cache::{GridContext, Subset};
use evalcore::engine::{Engine, GridReport};
use evalcore::grid::GridConfig;
use evalcore::results::{compression_csv, forecast_csv};
use forecast::model::ModelKind;

fn config(store_backed: bool) -> GridConfig {
    let mut cfg = GridConfig::smoke();
    cfg.models = vec![ModelKind::GBoost];
    cfg.store_backed = store_backed;
    cfg
}

/// The records of a report that lost no task: a cell failing on both
/// paths must not read as "identical".
fn complete<R>(report: GridReport<R>) -> Vec<R> {
    assert!(report.failures.is_empty(), "failed tasks: {:?}", report.failures);
    assert!(!report.records.is_empty(), "a grid without records");
    report.records
}

#[test]
fn store_backed_compression_grid_is_byte_identical() {
    let legacy = complete(Engine::new(&GridContext::new(config(false))).compression_report());
    let stored = complete(Engine::new(&GridContext::new(config(true))).compression_report());
    assert_eq!(compression_csv(&legacy), compression_csv(&stored));
}

#[test]
fn store_backed_forecast_grid_is_byte_identical() {
    let legacy_ctx = GridContext::new(config(false));
    let stored_ctx = GridContext::new(config(true));
    assert!(legacy_ctx.store_backend().is_none());

    let legacy = complete(Engine::new(&legacy_ctx).forecast_report());
    let stored = complete(Engine::new(&stored_ctx).forecast_report());
    assert_eq!(forecast_csv(&legacy), forecast_csv(&stored));

    // The grid transformed (methods × bounds) combinations of the test
    // subset, but staged it into the store exactly once.
    let backend = stored_ctx.store_backend().expect("store-backed context");
    let cfg = stored_ctx.config.clone();
    assert!(stored_ctx.transforms.misses() >= cfg.methods.len() * cfg.error_bounds.len());
    let channels = 1; // smoke config pins channels = 1
    assert_eq!(backend.store().num_series(), channels);
    let id = evalcore::storeback::series_id(cfg.datasets[0], Subset::Test, 0);
    assert!(backend.store().series_len(id).unwrap() > 0);
}
