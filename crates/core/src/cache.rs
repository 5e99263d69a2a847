//! Shared caches for the evaluation grids.
//!
//! The forecast grid runs one task per `(dataset, model, seed)`, but the
//! transformation `T(subset | C, ε)` of Definition 5 depends only on
//! `(dataset, subset, method, ε)`. Without sharing, every task re-compresses
//! and re-decompresses the same test subset — `models × seeds` redundant
//! codec passes per cell, which dominates grid wall-clock for the cheap
//! models. [`TransformCache`] memoizes each split-subset transform exactly
//! once behind a `parking_lot` lock, and [`DatasetCache`] does the same for
//! generated datasets (series, split, and raw compressed size), so the
//! compression grid, the Gorilla baseline, and both forecast grids can share
//! one generation pass. Full-series transforms are not memoized: each
//! compression or characteristics cell reads its key once, so a cached
//! copy would only hold memory (see [`GridContext::transform`]).
//! [`GridContext`] bundles both caches with the grid configuration and is
//! the handle every engine task runs against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use compression::codec::PeblcCompressor;
use compression::Method;
use forecast::model::{ForecastError, Forecaster};
use parking_lot::{Mutex, RwLock};
use tsdata::datasets::DatasetKind;
use tsdata::series::MultiSeries;
use tsdata::split::Split;

use crate::artifact::{ArtifactKey, ArtifactStore};
use crate::grid::GridConfig;
use crate::scenario::ScenarioError;
use crate::storeback::StoreBackend;

/// Which slice of a dataset a transform applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subset {
    /// The whole series, target channel only (the compression grid's view).
    Full,
    /// The training subset (first 70%).
    Train,
    /// The validation subset (next 10%).
    Val,
    /// The test subset (last 20%).
    Test,
}

/// Cache key for one transform: `(dataset, subset, method, ε)`. The error
/// bound is stored as its bit pattern so the key is `Eq + Hash`; grid
/// configurations enumerate bounds from one list, so bit equality is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformKey {
    /// Source dataset.
    pub dataset: DatasetKind,
    /// Which slice of the dataset.
    pub subset: Subset,
    /// Compression method.
    pub method: Method,
    eps_bits: u64,
}

impl TransformKey {
    /// Builds a key; `epsilon` must be finite.
    pub fn new(dataset: DatasetKind, subset: Subset, method: Method, epsilon: f64) -> Self {
        TransformKey { dataset, subset, method, eps_bits: epsilon.to_bits() }
    }
}

/// Size and segment statistics of the compressed frame behind a cached
/// transform (the target channel's frame).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Final compressed size in bytes (Eq. 3 numerator/denominator input).
    pub size_bytes: usize,
    /// Number of segments the compressor produced (Figure 3).
    pub num_segments: usize,
}

/// One transform's result: the decompressed series plus the compressed
/// frame's statistics. Split-subset transforms are shared through
/// [`TransformCache`]; a [`Subset::Full`] transform is owned by its caller
/// alone.
#[derive(Debug, Clone)]
pub struct CachedTransform {
    /// The decompressed (error-bounded) series, all channels transformed.
    pub series: Arc<MultiSeries>,
    /// Stats of the target channel's compressed frame.
    pub stats: FrameStats,
}

/// Applies the transformation `T` to every channel of a series, also
/// returning the compressed-frame statistics of the *target* channel.
///
/// This is the cache-facing sibling of
/// [`transform_series`](crate::scenario::transform_series), which discards
/// the frames.
pub fn transform_with_stats(
    data: &MultiSeries,
    compressor: &dyn PeblcCompressor,
    epsilon: f64,
) -> Result<(MultiSeries, FrameStats), ScenarioError> {
    let mut stats = FrameStats::default();
    let mut idx = 0usize;
    let target = data.target_index();
    let out = data.try_map_channels(|c| {
        let i = idx;
        idx += 1;
        let (d, frame) = compressor.transform(c, epsilon).map_err(ScenarioError::from)?;
        if i == target {
            stats = FrameStats { size_bytes: frame.size_bytes(), num_segments: frame.num_segments };
        }
        Ok::<_, ScenarioError>(d)
    })?;
    Ok((out, stats))
}

/// Runs one transform computation, observing its duration as
/// `transform_compute_seconds{method}`.
fn compute_timed<F>(method: Method, compute: F) -> Result<Arc<CachedTransform>, ScenarioError>
where
    F: FnOnce() -> Result<(MultiSeries, FrameStats), ScenarioError>,
{
    let start = std::time::Instant::now();
    let (series, stats) = compute()?;
    telemetry::observe(
        "transform_compute_seconds",
        &[("method", method.name())],
        telemetry::secs(start.elapsed()),
    );
    Ok(Arc::new(CachedTransform { series: Arc::new(series), stats }))
}

/// A lazily filled, exactly-once slot. The outer map is read-locked on the
/// hot path; each key owns a `Mutex<Option<..>>` so concurrent first
/// requests for the *same* key serialize on that key alone while other
/// keys proceed, and the computation runs exactly once.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

fn slot_for<K: Copy + Eq + std::hash::Hash, T>(
    map: &RwLock<HashMap<K, Slot<T>>>,
    key: K,
) -> Slot<T> {
    if let Some(slot) = map.read().get(&key) {
        return slot.clone();
    }
    map.write().entry(key).or_insert_with(|| Arc::new(Mutex::new(None))).clone()
}

/// Memoizes transforms per [`TransformKey`], computing each at most once.
#[derive(Debug, Default)]
pub struct TransformCache {
    slots: RwLock<HashMap<TransformKey, Slot<CachedTransform>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl TransformCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TransformCache::default()
    }

    /// Returns the cached transform for `key`, computing it via `compute`
    /// on first request. Failed computations are not cached: the error
    /// propagates and a later request retries (grid tasks abort on codec
    /// errors, so retries are not on any hot path).
    pub fn get_or_compute<F>(
        &self,
        key: TransformKey,
        compute: F,
    ) -> Result<Arc<CachedTransform>, ScenarioError>
    where
        F: FnOnce() -> Result<(MultiSeries, FrameStats), ScenarioError>,
    {
        let slot = slot_for(&self.slots, key);
        let mut guard = slot.lock();
        if let Some(cached) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("transform_cache_hits_total", &[], 1);
            return Ok(cached.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("transform_cache_misses_total", &[], 1);
        let cached = compute_timed(key.method, compute)?;
        *guard = Some(cached.clone());
        Ok(cached)
    }

    /// Number of requests served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that ran the transform (== distinct keys seen,
    /// when every computation succeeds).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.read().len()
    }
}

/// One generated dataset with everything the grids derive from it.
#[derive(Debug, Clone)]
pub struct CachedDataset {
    /// The generated multivariate series.
    pub series: MultiSeries,
    /// Its 70/10/20 chronological split.
    pub split: Split,
    /// gzip-compressed size of the raw target-channel bytes (Eq. 3's
    /// lossless reference size).
    pub raw_size: usize,
}

/// Memoizes dataset generation per [`DatasetKind`].
#[derive(Debug, Default)]
pub struct DatasetCache {
    slots: RwLock<HashMap<DatasetKind, Slot<CachedDataset>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl DatasetCache {
    /// Creates an empty cache.
    fn new() -> Self {
        DatasetCache::default()
    }

    /// Returns the cached dataset, generating it via `generate` on first
    /// request. Failed generations are not cached: the error propagates to
    /// the requesting task and a later request retries.
    fn get_or_try_generate<F>(
        &self,
        kind: DatasetKind,
        generate: F,
    ) -> Result<Arc<CachedDataset>, ScenarioError>
    where
        F: FnOnce() -> Result<CachedDataset, ScenarioError>,
    {
        let slot = slot_for(&self.slots, kind);
        let mut guard = slot.lock();
        if let Some(cached) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("dataset_cache_hits_total", &[], 1);
            return Ok(cached.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("dataset_cache_misses_total", &[], 1);
        let start = std::time::Instant::now();
        let cached = Arc::new(generate()?);
        telemetry::observe(
            "dataset_generate_seconds",
            &[("dataset", kind.name())],
            telemetry::secs(start.elapsed()),
        );
        *guard = Some(cached.clone());
        Ok(cached)
    }

    /// Number of requests served from the cache.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that generated a dataset.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Shared state for one grid run: the configuration plus both caches.
/// Running several grids (compression, forecast, retrain, Gorilla
/// baseline) against the *same* context shares dataset generation and
/// transforms across all of them.
#[derive(Debug)]
pub struct GridContext {
    /// The grid configuration.
    pub config: GridConfig,
    /// Generated datasets.
    pub datasets: DatasetCache,
    /// Memoized transforms.
    pub transforms: TransformCache,
    artifacts: Option<ArtifactStore>,
    /// Present when the configuration asked for store-backed transforms:
    /// subsets are staged into the chunked store once and every transform
    /// streams from it (DESIGN.md §12).
    store: Option<Arc<StoreBackend>>,
    models_loaded: AtomicUsize,
    models_fitted: AtomicUsize,
}

impl GridContext {
    /// Creates a context with empty caches. When the configuration names
    /// an artifact directory, the store is opened here so every grid
    /// running against this context checkpoints and resumes through it;
    /// an unopenable store degrades to fitting from scratch with a
    /// warning rather than failing the run.
    pub fn new(config: GridConfig) -> Self {
        let artifacts = config.artifacts.as_ref().and_then(|dir| match ArtifactStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!(
                    "[artifacts] cannot open store at {}: {e}; fitting from scratch",
                    dir.display()
                );
                None
            }
        });
        let store = config.store_backed.then(|| Arc::new(StoreBackend::default()));
        GridContext {
            config,
            datasets: DatasetCache::new(),
            transforms: TransformCache::new(),
            artifacts,
            store,
            models_loaded: AtomicUsize::new(0),
            models_fitted: AtomicUsize::new(0),
        }
    }

    /// The chunked-store backend, when this context is store-backed.
    pub fn store_backend(&self) -> Option<&Arc<StoreBackend>> {
        self.store.as_ref()
    }

    /// `(loaded, fitted)` model counts across every task run against this
    /// context — the numbers behind the repro CLI's
    /// `loaded=N fitted=M` log line. A resumed run reports `fitted=0`.
    pub fn fit_counts(&self) -> (usize, usize) {
        (self.models_loaded.load(Ordering::Relaxed), self.models_fitted.load(Ordering::Relaxed))
    }

    /// Produces a fitted model: restored from the artifact store when a
    /// previous run checkpointed this exact `key`, fitted (and
    /// checkpointed) otherwise.
    ///
    /// Robustness policy: a *missing* artifact is the normal cold-start
    /// path; an *unreadable or rejected* one (corruption, format version
    /// skew, architecture mismatch) is warned about and treated as
    /// missing, so a damaged store degrades to a slower run, never a
    /// failed one. Models that don't support state export
    /// ([`ForecastError::InvalidState`]) fit normally and skip the
    /// checkpoint.
    pub fn fit_or_load(
        &self,
        key: &ArtifactKey,
        model: &mut dyn Forecaster,
        train: &MultiSeries,
        val: &MultiSeries,
    ) -> Result<(), ScenarioError> {
        if let Some(store) = &self.artifacts {
            match store.load(key) {
                Ok(Some(state)) => match model.load_state(&state) {
                    Ok(()) => {
                        self.models_loaded.fetch_add(1, Ordering::Relaxed);
                        telemetry::counter_add(
                            "models_loaded_total",
                            &[("model", key.model.as_str())],
                            1,
                        );
                        return Ok(());
                    }
                    Err(e) => eprintln!(
                        "[artifacts] stored state for {} rejected ({e}); refitting",
                        key.canonical()
                    ),
                },
                Ok(None) => {}
                Err(e) => eprintln!(
                    "[artifacts] unreadable artifact for {} ({e}); refitting",
                    key.canonical()
                ),
            }
        }
        {
            let _span = telemetry::span("model.fit", &[("model", key.model.as_str())]);
            let start = std::time::Instant::now();
            model.fit(train, val)?;
            telemetry::observe(
                "model_fit_seconds",
                &[("model", key.model.as_str())],
                telemetry::secs(start.elapsed()),
            );
        }
        self.models_fitted.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("models_fitted_total", &[("model", key.model.as_str())], 1);
        if let Some(store) = &self.artifacts {
            match model.save_state() {
                Ok(state) => {
                    if let Err(e) = store.save(key, &state) {
                        eprintln!("[artifacts] failed to save {}: {e}", key.canonical());
                    }
                }
                Err(ForecastError::InvalidState(_)) => {}
                Err(e) => {
                    eprintln!("[artifacts] cannot snapshot {}: {e}", key.canonical())
                }
            }
        }
        Ok(())
    }

    /// The dataset for `kind`, generated (and split) at most once. A split
    /// failure (series too short for the 70/10/20 proportions) surfaces as
    /// a [`ScenarioError`] so engine tasks can record it as a per-task
    /// failure instead of aborting the grid.
    pub fn try_dataset(&self, kind: DatasetKind) -> Result<Arc<CachedDataset>, ScenarioError> {
        self.datasets.get_or_try_generate(kind, || {
            let series = self.config.dataset(kind);
            let raw_size = compression::raw_compressed_size(series.target());
            let split = self.config.split(&series)?;
            Ok(CachedDataset { series, split, raw_size })
        })
    }

    /// The transform `T(subset | method, ε)` for a dataset.
    /// [`Subset::Full`] transforms the target channel of the whole series
    /// (the compression grid's measurement); the split subsets transform
    /// every channel (the forecast scenarios').
    ///
    /// Only the split subsets are memoized, at most one computation per key:
    /// every `(model, seed)` task of a dataset scores against the same
    /// train/val/test transforms. A full-series transform runs on every call
    /// and never enters [`TransformCache`]. The compression and
    /// characteristics grids ask for each full-series key once per context,
    /// so no work repeats, and keeping the 234 decoded series of the
    /// paper-length compression grid would hold about 283 MB that nothing
    /// reads again.
    pub fn transform(
        &self,
        dataset: DatasetKind,
        subset: Subset,
        method: Method,
        epsilon: f64,
    ) -> Result<Arc<CachedTransform>, ScenarioError> {
        let ds = self.try_dataset(dataset)?;
        let compute = || {
            let uni;
            let data: &MultiSeries = match subset {
                Subset::Full => {
                    let name = &ds.series.names()[ds.series.target_index()];
                    uni = MultiSeries::univariate(name, ds.series.target().clone());
                    &uni
                }
                Subset::Train => &ds.split.train,
                Subset::Val => &ds.split.val,
                Subset::Test => &ds.split.test,
            };
            match &self.store {
                Some(backend) => {
                    backend.transform_with_stats(dataset, subset, data, method, epsilon)
                }
                None => transform_with_stats(data, method.compressor().as_ref(), epsilon),
            }
        };
        match subset {
            Subset::Full => compute_timed(method, compute),
            Subset::Train | Subset::Val | Subset::Test => self
                .transforms
                .get_or_compute(TransformKey::new(dataset, subset, method, epsilon), compute),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::transform_series;
    use tsdata::series::RegularTimeSeries;

    fn series(n: usize) -> MultiSeries {
        let vals: Vec<f64> =
            (0..n).map(|i| 5.0 + (i as f64 / 16.0 * std::f64::consts::TAU).sin()).collect();
        MultiSeries::univariate("y", RegularTimeSeries::new(0, 60, vals).unwrap())
    }

    #[test]
    fn transform_computed_exactly_once_per_key() {
        let cache = TransformCache::new();
        let data = series(400);
        let key = TransformKey::new(DatasetKind::ETTm1, Subset::Test, Method::Pmc, 0.1);
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let t = cache
                .get_or_compute(key, || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    transform_with_stats(&data, Method::Pmc.compressor().as_ref(), 0.1)
                })
                .unwrap();
            assert_eq!(t.series.len(), data.len());
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        let cache = TransformCache::new();
        let data = series(600);
        let key = TransformKey::new(DatasetKind::ETTm2, Subset::Val, Method::Sz, 0.05);
        let calls = AtomicUsize::new(0);
        crossbeam::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    cache
                        .get_or_compute(key, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            transform_with_stats(&data, Method::Sz.compressor().as_ref(), 0.05)
                        })
                        .unwrap()
                });
            }
        })
        .expect("no panics");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "transform must run exactly once");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = TransformCache::new();
        let data = series(300);
        for (m, eps) in [(Method::Pmc, 0.1), (Method::Pmc, 0.2), (Method::Swing, 0.1)] {
            let key = TransformKey::new(DatasetKind::Solar, Subset::Test, m, eps);
            cache
                .get_or_compute(key, || transform_with_stats(&data, m.compressor().as_ref(), eps))
                .unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cached_series_matches_direct_transform() {
        let data = series(500);
        let cache = TransformCache::new();
        let key = TransformKey::new(DatasetKind::Wind, Subset::Train, Method::Swing, 0.3);
        let cached = cache
            .get_or_compute(key, || {
                transform_with_stats(&data, Method::Swing.compressor().as_ref(), 0.3)
            })
            .unwrap();
        let direct = transform_series(&data, Method::Swing.compressor().as_ref(), 0.3).unwrap();
        assert_eq!(cached.series.target().values(), direct.target().values());
        assert!(cached.stats.size_bytes > 0);
        assert!(cached.stats.num_segments > 0);
    }

    #[test]
    fn grid_context_shares_datasets_and_transforms() {
        let mut cfg = GridConfig::smoke();
        cfg.len = Some(1_200);
        let ctx = GridContext::new(cfg);
        let a = ctx.try_dataset(DatasetKind::ETTm1).expect("dataset splits");
        let b = ctx.try_dataset(DatasetKind::ETTm1).expect("dataset splits");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.datasets.misses(), 1);
        assert_eq!(ctx.datasets.hits(), 1);

        let t1 = ctx.transform(DatasetKind::ETTm1, Subset::Test, Method::Pmc, 0.1).unwrap();
        let t2 = ctx.transform(DatasetKind::ETTm1, Subset::Test, Method::Pmc, 0.1).unwrap();
        assert!(Arc::ptr_eq(&t1.series, &t2.series));
        // The cached test transform matches transforming the split directly.
        let direct =
            transform_series(&a.split.test, Method::Pmc.compressor().as_ref(), 0.1).unwrap();
        assert_eq!(t1.series.target().values(), direct.target().values());
        // Full-series transforms are computed per call and never cached.
        let full = ctx.transform(DatasetKind::ETTm1, Subset::Full, Method::Pmc, 0.1).unwrap();
        let again = ctx.transform(DatasetKind::ETTm1, Subset::Full, Method::Pmc, 0.1).unwrap();
        assert_eq!(full.series.len(), a.series.len());
        assert!(!Arc::ptr_eq(&full.series, &again.series));
        assert_eq!(full.series.target().values(), again.series.target().values());
        assert_eq!(full.stats, again.stats);
        assert_eq!(ctx.transforms.misses(), 1);
        assert_eq!(ctx.transforms.len(), 1);
    }

    #[test]
    fn epsilon_round_trips_through_key() {
        let k = TransformKey::new(DatasetKind::ETTm1, Subset::Full, Method::Sz, 0.015);
        assert_eq!(f64::from_bits(k.eps_bits), 0.015);
        let k2 = TransformKey::new(DatasetKind::ETTm1, Subset::Full, Method::Sz, 0.015);
        assert_eq!(k, k2);
    }
}
