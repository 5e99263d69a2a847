//! The evaluation grid's configuration: compressor × error bound ×
//! dataset on the compression side, and model × seed × compressor ×
//! error bound × dataset on the forecasting side.
//!
//! A grid runs through one entry point per operation:
//! `Engine::new(&GridContext::new(config)).{compression,gorilla,forecast,retrain}_report()`
//! ([`crate::engine::Engine`]). The [`crate::cache::GridContext`] caches
//! share dataset generation and the split-subset
//! `(dataset, subset, method, ε)` transforms across tasks — and across
//! grids, when several reports run on the same context. Every report
//! returns its records together with the structured per-task failures.

use compression::{Method, ALL_METHODS, ERROR_BOUNDS};
use forecast::model::{ModelKind, ALL_MODELS};
use forecast::{build_model, BuildOptions, Profile};
use tsdata::datasets::{DatasetKind, GenOptions, ALL_DATASETS};
use tsdata::series::MultiSeries;
use tsdata::split::{split, Split, SplitSpec};

use crate::scenario::ScenarioError;

/// Grid configuration. The defaults of [`GridConfig::default_repro`]
/// complete on one laptop-class CPU; [`GridConfig::paper`] matches the
/// paper's scale.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Datasets to evaluate.
    pub datasets: Vec<DatasetKind>,
    /// Dataset length override (`None` = paper lengths).
    pub len: Option<usize>,
    /// Channel override (`None` = the target alone, the only channel any
    /// model, metric or experiment reads; see
    /// [`GenOptions::channels`](tsdata::datasets::GenOptions::channels)).
    pub channels: Option<usize>,
    /// Input window length.
    pub input_len: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Error bounds (paper: the 13 values of §3.2).
    pub error_bounds: Vec<f64>,
    /// Lossy methods.
    pub methods: Vec<Method>,
    /// Forecasting models.
    pub models: Vec<ModelKind>,
    /// Seeds for deep models (paper: 10).
    pub seeds_deep: usize,
    /// Seeds for Arima/GBoost (paper: 5).
    pub seeds_simple: usize,
    /// Stride between test evaluation windows (1 = every window).
    pub eval_stride: usize,
    /// Inference batch size for evaluation scoring, in windows (≥ 1; `0`
    /// behaves as 1): windows are staged into `[batch_size, input_len]`
    /// matrices and predicted through
    /// [`forecast::model::Forecaster::predict_batch`]. Metrics and CSVs
    /// are identical for every value.
    pub batch_size: usize,
    /// Model size profile.
    pub profile: Profile,
    /// Worker threads.
    pub threads: usize,
    /// Seed for a generated chaos schedule (`None` = no fault injection).
    /// When set, every engine run injects deterministic worker kills,
    /// stalls, slow-downs, and callback panics — and must still produce
    /// byte-identical outputs (the CI chaos-smoke job cmp's the CSVs).
    pub chaos_seed: Option<u64>,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Artifact store directory (`None` = no checkpointing). When set,
    /// fitted models are saved as versioned artifacts and later runs with
    /// the same configuration load them instead of refitting (see
    /// [`crate::artifact`]).
    pub artifacts: Option<std::path::PathBuf>,
    /// Serve every transform from the chunked store (`crates/store`):
    /// subsets are staged as lossless Gorilla chunks once and re-encoded
    /// through the streaming codecs per `(method, ε)`. Produces
    /// byte-identical results to the in-memory path (DESIGN.md §12).
    pub store_backed: bool,
}

impl GridConfig {
    /// Minimal smoke configuration for tests: one small dataset, two
    /// cheap models, three error bounds.
    pub fn smoke() -> Self {
        GridConfig {
            datasets: vec![DatasetKind::ETTm1],
            len: Some(1_600),
            channels: Some(1),
            input_len: 48,
            horizon: 12,
            error_bounds: vec![0.01, 0.1, 0.4],
            methods: ALL_METHODS.to_vec(),
            models: vec![ModelKind::GBoost, ModelKind::DLinear],
            seeds_deep: 1,
            seeds_simple: 1,
            eval_stride: 12,
            batch_size: 64,
            profile: Profile::Fast,
            threads: num_threads(),
            chaos_seed: None,
            data_seed: 0x5EED,
            artifacts: None,
            store_backed: false,
        }
    }

    /// Laptop-scale defaults covering the full method/model/dataset grid
    /// on shortened series.
    pub fn default_repro() -> Self {
        GridConfig {
            datasets: ALL_DATASETS.to_vec(),
            len: Some(6_000),
            channels: None,
            input_len: 96,
            horizon: 24,
            error_bounds: ERROR_BOUNDS.to_vec(),
            methods: ALL_METHODS.to_vec(),
            models: ALL_MODELS.to_vec(),
            seeds_deep: 2,
            seeds_simple: 1,
            eval_stride: 24,
            batch_size: 64,
            profile: Profile::Fast,
            threads: num_threads(),
            chaos_seed: None,
            data_seed: 0x5EED,
            artifacts: None,
            store_backed: false,
        }
    }

    /// Paper-scale configuration: full dataset lengths, the paper's 10/5
    /// seed counts, and paper-profile model sizes. Test windows use
    /// stride 4 rather than the paper's every-window protocol to keep the
    /// run in CPU-hours territory (set `eval_stride = 1` to match the
    /// paper exactly; the aggregate metrics are insensitive to the
    /// stride because windows overlap heavily).
    pub fn paper() -> Self {
        GridConfig {
            datasets: ALL_DATASETS.to_vec(),
            len: None,
            channels: None,
            input_len: 96,
            horizon: 24,
            error_bounds: ERROR_BOUNDS.to_vec(),
            methods: ALL_METHODS.to_vec(),
            models: ALL_MODELS.to_vec(),
            seeds_deep: 10,
            seeds_simple: 5,
            eval_stride: 4,
            batch_size: 64,
            profile: Profile::Paper,
            threads: num_threads(),
            chaos_seed: None,
            data_seed: 0x5EED,
            artifacts: None,
            store_backed: false,
        }
    }

    fn gen_options(&self) -> GenOptions {
        GenOptions { len: self.len, channels: self.channels, seed: self.data_seed }
    }

    /// Generates a dataset under this grid's options.
    pub(crate) fn dataset(&self, kind: DatasetKind) -> MultiSeries {
        tsdata::datasets::generate(kind, self.gen_options())
    }

    /// Splits a dataset with the paper's 70/10/20 proportions. A series
    /// too short to split is an error the engine records as a per-task
    /// failure, not a panic.
    pub(crate) fn split(&self, data: &MultiSeries) -> Result<Split, ScenarioError> {
        Ok(split(data, SplitSpec::default())?)
    }

    /// Seeds used for a given model kind.
    pub fn seeds_for(&self, model: ModelKind) -> Vec<u64> {
        let n = if model.is_deep() { self.seeds_deep } else { self.seeds_simple };
        (0..n as u64).map(|s| 40 + s).collect()
    }

    /// Model builder for one grid task.
    pub(crate) fn build_task_model(
        &self,
        dataset: DatasetKind,
        kind: ModelKind,
        seed: u64,
    ) -> Box<dyn forecast::model::Forecaster> {
        let season = dataset.samples_per_day() as usize;
        build_model(
            kind,
            BuildOptions {
                input_len: self.input_len,
                horizon: self.horizon,
                season: (season >= 2).then_some(season),
                seed,
                profile: self.profile,
            },
        )
    }

    /// The artifact-store address of one fitted model under this
    /// configuration. `method`/`epsilon` describe the lossy transform of
    /// the *training* data (`None` = trained on raw data).
    pub(crate) fn artifact_key(
        &self,
        dataset: DatasetKind,
        model: ModelKind,
        seed: u64,
        method: Option<Method>,
        epsilon: Option<f64>,
    ) -> crate::artifact::ArtifactKey {
        crate::artifact::ArtifactKey {
            dataset: dataset.name().to_string(),
            model: model.name().to_string(),
            seed,
            profile: format!("{:?}", self.profile),
            method: method.map(|m| m.name().to_string()),
            eps_bits: epsilon.map(f64::to_bits),
            input_len: self.input_len,
            horizon: self.horizon,
            len: self.len,
            channels: self.channels,
            data_seed: self.data_seed,
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GridContext;
    use crate::engine::{Engine, GridReport};

    /// The records of a report that lost no task.
    fn complete<R>(report: GridReport<R>) -> Vec<R> {
        assert!(report.failures.is_empty(), "failed tasks: {:?}", report.failures);
        assert!(!report.records.is_empty(), "a grid without records");
        report.records
    }

    #[test]
    fn compression_grid_covers_cells() {
        let mut cfg = GridConfig::smoke();
        cfg.len = Some(1200);
        let ctx = GridContext::new(cfg);
        let recs = complete(Engine::new(&ctx).compression_report());
        assert_eq!(recs.len(), 3 * 3); // 3 methods x 3 eps

        // Each cell reads its full-series transform once, so none is kept.
        assert_eq!(ctx.transforms.len(), 0);
        assert_eq!(ctx.transforms.hits() + ctx.transforms.misses(), 0);

        for r in &recs {
            assert!(r.cr > 0.0 && r.cr.is_finite());
            assert!(r.te_nrmse >= 0.0);
            assert!(r.segments > 0);
        }
        // Higher error bound -> CR does not decrease (PMC).
        let pmc: Vec<_> = recs.iter().filter(|r| r.method == Method::Pmc).collect();
        assert!(pmc[2].cr >= pmc[0].cr, "{} vs {}", pmc[2].cr, pmc[0].cr);
    }

    #[test]
    fn gorilla_baseline_present() {
        let ctx = GridContext::new(GridConfig::smoke());
        let crs = complete(Engine::new(&ctx).gorilla_report());
        assert_eq!(crs.len(), 1);
        assert!(crs[0].1 > 0.2, "gorilla CR {}", crs[0].1);
    }

    #[test]
    fn forecast_grid_smoke() {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.05];
        cfg.models = vec![ModelKind::GBoost];
        let recs = complete(Engine::new(&GridContext::new(cfg)).forecast_report());
        // 1 baseline + 3 methods x 1 eps = 4 records
        assert_eq!(recs.len(), 4);
        assert!(recs.iter().any(|r| r.method.is_none()));
        for r in &recs {
            assert!(r.metrics.rmse.is_finite());
        }
    }

    #[test]
    fn forecast_grid_transforms_each_cell_exactly_once() {
        // The acceptance criterion of the shared cache: with several
        // (model, seed) tasks over the same dataset, each
        // (dataset, method, ε) test transform runs once; every further
        // request is a cache hit.
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.05, 0.2];
        cfg.models = vec![ModelKind::GBoost, ModelKind::DLinear];
        let ctx = GridContext::new(cfg);
        let recs = complete(Engine::new(&ctx).forecast_report());
        let cells = 3 * 2; // methods x eps
        let tasks = 2; // 2 models x 1 seed
        assert_eq!(recs.len(), tasks * (1 + cells));
        assert_eq!(ctx.transforms.misses(), cells, "each cell transforms exactly once");
        assert_eq!(ctx.transforms.hits(), (tasks - 1) * cells);
        assert_eq!(ctx.transforms.len(), cells);
        // The dataset itself was generated once and shared.
        assert_eq!(ctx.datasets.misses(), 1);
    }

    #[test]
    fn retrain_grid_smoke() {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.1];
        cfg.models = vec![ModelKind::GBoost];
        let ctx = GridContext::new(cfg);
        let recs = complete(Engine::new(&ctx).retrain_report());
        // 1 baseline + 3 methods x 1 eps
        assert_eq!(recs.len(), 4);
        assert!(recs.iter().any(|r| r.method.is_none()));
        for r in &recs {
            assert!(r.metrics.rmse.is_finite());
        }
        // Train, val, and test were each transformed once per cell.
        assert_eq!(ctx.transforms.misses(), 3 * 3);
    }

    #[test]
    fn shared_context_reuses_datasets_across_grids() {
        let mut cfg = GridConfig::smoke();
        cfg.len = Some(1200);
        cfg.error_bounds = vec![0.1];
        let ctx = GridContext::new(cfg);
        let engine = Engine::new(&ctx);
        let comp = complete(engine.compression_report());
        let gorilla = complete(engine.gorilla_report());
        assert_eq!(comp.len(), 3);
        assert_eq!(gorilla.len(), 1);
        // One generation serves both grids.
        assert_eq!(ctx.datasets.misses(), 1);
        assert!(ctx.datasets.hits() >= 3);
    }
}
