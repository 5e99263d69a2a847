//! Store-backed transforms: the grid's `T(subset | C, ε)` served from the
//! chunked store instead of in-memory `Vec`s (DESIGN.md §12).
//!
//! Each `(dataset, subset)` is ingested into the [`TsStore`] exactly once,
//! losslessly (Gorilla chunks), on first use. A transform then *streams*
//! the chunk-backed [`store::iter::StoreSeries`] through the online PMC/Swing encoders
//! ([`compression::compress_source`]) — the sealed staging chunks are
//! decoded one at a time and re-encoded under `(method, ε)` without ever
//! materialising the channel (SZ, being block-based, is the documented
//! exception and materialises). Because the streaming encoders produce
//! the same frames as the batch codecs, a store-backed grid run emits
//! byte-identical CSVs to the legacy path — CI asserts exactly that.

use std::collections::HashSet;

use compression::codec::{CompressedSeries, PeblcCompressor};
use compression::Method;
use parking_lot::Mutex;
use store::{ChunkCodec, SeriesId, StoreConfig, TsStore};
use tsdata::datasets::DatasetKind;
use tsdata::series::{MultiSeries, SeriesSource};

use crate::cache::{FrameStats, Subset};
use crate::scenario::ScenarioError;

fn subset_index(subset: Subset) -> u64 {
    match subset {
        Subset::Full => 0,
        Subset::Train => 1,
        Subset::Val => 2,
        Subset::Test => 3,
    }
}

/// Deterministic id for one ingested channel:
/// `dataset << 16 | subset << 8 | channel`.
pub fn series_id(dataset: DatasetKind, subset: Subset, channel: usize) -> SeriesId {
    SeriesId((dataset as u64) << 16 | subset_index(subset) << 8 | channel as u64)
}

/// The grid's handle on the chunked store: ingest-once staging plus
/// streaming re-encoding transforms.
#[derive(Debug)]
pub struct StoreBackend {
    store: TsStore,
    ingested: Mutex<HashSet<(DatasetKind, u64)>>,
}

impl Default for StoreBackend {
    fn default() -> Self {
        StoreBackend::new(StoreConfig::default())
    }
}

impl StoreBackend {
    /// Creates a backend over an empty store with the given seal policy.
    fn new(config: StoreConfig) -> Self {
        StoreBackend { store: TsStore::new(config), ingested: Mutex::new(HashSet::new()) }
    }

    /// The underlying store (read-only access for diagnostics/benches).
    pub fn store(&self) -> &TsStore {
        &self.store
    }

    /// Stages every channel of `data` as lossless Gorilla chunks, exactly
    /// once per `(dataset, subset)`; later calls are no-ops. The lock
    /// covers the whole ingest so concurrent first requests cannot race a
    /// half-ingested subset.
    fn ensure_ingested(
        &self,
        dataset: DatasetKind,
        subset: Subset,
        data: &MultiSeries,
    ) -> Result<(), ScenarioError> {
        let mut done = self.ingested.lock();
        if !done.insert((dataset, subset_index(subset))) {
            return Ok(());
        }
        for (channel, series) in data.channels().iter().enumerate() {
            self.store
                .ingest(series_id(dataset, subset, channel), ChunkCodec::Gorilla, 0.0, series)
                .map_err(ScenarioError::from)?;
        }
        Ok(())
    }

    /// `T(subset | method, ε)` served from the store: each staged channel
    /// is streamed through the `(method, ε)` encoder and decompressed,
    /// yielding the same `(series, stats)` the legacy
    /// [`transform_with_stats`](crate::cache::transform_with_stats) path
    /// produces — bit for bit, since the streaming encoders match the
    /// batch frames.
    pub(crate) fn transform_with_stats(
        &self,
        dataset: DatasetKind,
        subset: Subset,
        data: &MultiSeries,
        method: Method,
        epsilon: f64,
    ) -> Result<(MultiSeries, FrameStats), ScenarioError> {
        self.ensure_ingested(dataset, subset, data)?;
        let compressor = method.compressor();
        let mut stats = FrameStats::default();
        let mut channels = Vec::with_capacity(data.num_channels());
        for channel in 0..data.num_channels() {
            let view = self
                .store
                .read(series_id(dataset, subset, channel))
                .map_err(ScenarioError::from)?;
            let frame = compression::compress_source(&view, method, epsilon)?;
            if channel == data.target_index() {
                stats =
                    FrameStats { size_bytes: frame.size_bytes(), num_segments: frame.num_segments };
            }
            mirror_codec_counters(compressor.as_ref(), view.len(), &frame);
            channels.push(compressor.decompress(&frame)?);
        }
        let out = MultiSeries::new(data.names().to_vec(), channels, data.target_index())?;
        Ok((out, stats))
    }
}

/// The legacy path's `PeblcCompressor::transform` records
/// `codec_bytes_{in,out}_total`; the store path compresses through
/// [`compression::compress_source`] directly, so it mirrors the same
/// counters to keep `--metrics` summaries comparable between modes.
fn mirror_codec_counters(
    compressor: &dyn PeblcCompressor,
    points: usize,
    frame: &CompressedSeries,
) {
    let label = [("method", compressor.name())];
    telemetry::counter_add("codec_bytes_in_total", &label, (points * 8) as u64);
    telemetry::counter_add("codec_bytes_out_total", &label, frame.size_bytes() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::transform_with_stats;
    use compression::ALL_METHODS;
    use tsdata::series::RegularTimeSeries;

    fn dataset(n: usize) -> MultiSeries {
        let a: Vec<f64> = (0..n)
            .map(|i| 12.0 + 4.0 * (i as f64 / 30.0 * std::f64::consts::TAU).sin() + (i % 5) as f64)
            .collect();
        let b: Vec<f64> = a.iter().map(|v| v * 0.25 - 2.0).collect();
        MultiSeries::new(
            vec!["a".into(), "b".into()],
            vec![
                RegularTimeSeries::new(0, 900, a).unwrap(),
                RegularTimeSeries::new(0, 900, b).unwrap(),
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn store_transform_bit_identical_to_legacy() {
        let backend = StoreBackend::default();
        let data = dataset(700);
        for method in ALL_METHODS {
            for eps in [0.01, 0.1, 0.4] {
                let (legacy, legacy_stats) =
                    transform_with_stats(&data, method.compressor().as_ref(), eps).unwrap();
                let (stored, stored_stats) = backend
                    .transform_with_stats(DatasetKind::ETTm1, Subset::Test, &data, method, eps)
                    .unwrap();
                for (l, s) in legacy.channels().iter().zip(stored.channels()) {
                    let lb: Vec<u64> = l.values().iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(lb, sb, "{} eps={eps}", method.name());
                }
                assert_eq!(legacy_stats, stored_stats, "{} eps={eps}", method.name());
            }
        }
        // One staging pass regardless of how many transforms ran.
        assert_eq!(backend.store().num_series(), 2);
    }

    #[test]
    fn ids_are_unique_across_the_grid() {
        let mut seen = HashSet::new();
        for &dataset in &tsdata::datasets::ALL_DATASETS {
            for subset in [Subset::Full, Subset::Train, Subset::Val, Subset::Test] {
                for channel in 0..32 {
                    assert!(seen.insert(series_id(dataset, subset, channel)));
                }
            }
        }
    }
}
