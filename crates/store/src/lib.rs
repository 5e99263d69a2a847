//! # store — streaming chunked time-series store
//!
//! The Gorilla-shaped ingestion/serving layer (DESIGN.md §12): points are
//! appended one at a time into a per-series *active chunk*, sealed into
//! immutable, CRC-protected [`SealedChunk`]s when the chunk reaches the
//! configured point count or time span, and read back through
//! chunk-at-a-time decoding iterators ([`StoreSeries`] /
//! [`iter::PointIter`]) that implement [`tsdata::series::SeriesSource`] —
//! so everything above (windowers, evaluation scenarios) reads the store
//! without materialising whole series. A read decodes only the chunks it
//! covers: skipping steps over whole chunks by their point count, and the
//! open chunk's decoded values are cached until the next append.
//!
//! Each series carries its own codec selection: [`ChunkCodec::Gorilla`]
//! stages raw data losslessly (delta-of-delta timestamps + XOR values),
//! while the paper's error-bounded codecs (PMC/Swing/SZ) encode chunks
//! under a relative bound ε at ingest, pushing into the same online
//! encoder each batch codec folds over, so sealed payloads are the batch
//! codecs' frames.
//!
//! The series map is a single `RwLock<HashMap>` keyed by [`SeriesId`]:
//! lookups are O(1) and appends to different series contend only on the
//! brief read-lock, each shard owning its own mutex.
//!
//! Timestamps must arrive in order at a constant interval (the paper's
//! Definition 2 regularity); the first two appends fix the cadence and
//! later violations are rejected with [`StoreError::OutOfOrder`].

use std::collections::HashMap;
use std::sync::Arc;

use compression::codec::CodecError;
use parking_lot::{Mutex, RwLock};
use tsdata::series::SeriesSource;

mod append;
mod chunk;
pub mod iter;

pub use chunk::{ChunkCodec, SealedChunk, CHUNK_HEADER_LEN};

use append::ActiveChunk;
use iter::StoreSeries;

/// Identifies one series in the store. Callers compose ids however they
/// like (the evaluation grid packs dataset/subset/channel indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u64);

impl std::fmt::Display for SeriesId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The series id is not registered.
    UnknownSeries(SeriesId),
    /// The series id is already registered.
    DuplicateSeries(SeriesId),
    /// An append violated the series' regular cadence.
    OutOfOrder {
        /// The offending series.
        id: SeriesId,
        /// The timestamp that was appended.
        ts: i64,
        /// The timestamp the cadence requires.
        expected: i64,
    },
    /// A codec rejected the data (bad bound, unencodable timestamps, ...).
    Codec(CodecError),
    /// A chunk frame failed structural validation.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownSeries(id) => write!(f, "unknown series {id}"),
            StoreError::DuplicateSeries(id) => write!(f, "series {id} already exists"),
            StoreError::OutOfOrder { id, ts, expected } => {
                write!(f, "series {id}: timestamp {ts} breaks cadence (expected {expected})")
            }
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt chunk: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Seal policy configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Seal the active chunk when it reaches this many points.
    pub max_chunk_points: usize,
    /// Additionally seal when a chunk would span at least this many
    /// seconds (`None` disables the time bound).
    pub chunk_span: Option<i64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // 4096 points ≈ 43 days of the paper's 15-minute cadence: long
        // enough to amortise the 56-byte header to noise, short enough
        // that reads decode in cache-sized pieces.
        StoreConfig { max_chunk_points: 4096, chunk_span: None }
    }
}

/// Per-series state: codec selection, cadence, sealed chunks, open chunk.
#[derive(Debug)]
struct Shard {
    codec: ChunkCodec,
    eps: f64,
    start_ts: i64,
    last_ts: i64,
    interval: Option<i64>,
    count: usize,
    sealed: Vec<Arc<SealedChunk>>,
    active: Option<ActiveChunk>,
    /// Dirty-generation counter: bumped on every append (and on seal).
    /// Snapshot reads record the generation they sealed at, so repeated
    /// reads of an unchanged series reuse the cached frame instead of
    /// clone-sealing (re-encoding) the open chunk on every call.
    generation: u64,
    /// The cached snapshot-seal of the open chunk and its decoded values,
    /// tagged with the generation they captured.
    snapshot: Option<Snapshot>,
}

/// A snapshot-seal of an open chunk, with the values its frame decodes to
/// so that reads of an unchanged series decode nothing.
#[derive(Debug)]
struct Snapshot {
    generation: u64,
    frame: Arc<SealedChunk>,
    values: Arc<[f64]>,
}

impl Shard {
    /// The interval used for sealing; a single-point series defaults to 1
    /// (mirroring `TimeSeries::into_regular`).
    fn seal_interval(&self) -> i64 {
        self.interval.unwrap_or(1)
    }
}

/// The chunked store: an O(1) series map in front of per-series shards.
#[derive(Debug, Default)]
pub struct TsStore {
    config: StoreConfig,
    series: RwLock<HashMap<SeriesId, Arc<Mutex<Shard>>>>,
}

impl TsStore {
    /// Creates a store with the given seal policy.
    pub fn new(config: StoreConfig) -> TsStore {
        TsStore { config, series: RwLock::new(HashMap::new()) }
    }

    /// Number of registered series.
    pub fn num_series(&self) -> usize {
        self.series.read().len()
    }

    /// Registers a series with its chunk codec and error bound (use
    /// [`ChunkCodec::Gorilla`] with `eps = 0.0` for lossless staging).
    pub fn create_series(
        &self,
        id: SeriesId,
        codec: ChunkCodec,
        eps: f64,
    ) -> Result<(), StoreError> {
        let mut map = self.series.write();
        if map.contains_key(&id) {
            return Err(StoreError::DuplicateSeries(id));
        }
        map.insert(
            id,
            Arc::new(Mutex::new(Shard {
                codec,
                eps,
                start_ts: 0,
                last_ts: 0,
                interval: None,
                count: 0,
                sealed: Vec::new(),
                active: None,
                generation: 0,
                snapshot: None,
            })),
        );
        Ok(())
    }

    fn shard(&self, id: SeriesId) -> Result<Arc<Mutex<Shard>>, StoreError> {
        self.series.read().get(&id).cloned().ok_or(StoreError::UnknownSeries(id))
    }

    /// Appends many points under one shard lock — the bulk-ingest path.
    pub fn append_batch(
        &self,
        id: SeriesId,
        points: impl IntoIterator<Item = (i64, f64)>,
    ) -> Result<(), StoreError> {
        let shard = self.shard(id)?;
        let mut s = shard.lock();
        for (ts, value) in points {
            // Enforce regular cadence (Definition 2): the first two
            // appends fix start and interval, every later point must land
            // exactly one interval after its predecessor.
            match (s.count, s.interval) {
                (0, _) => s.start_ts = ts,
                (1, None) => {
                    if ts <= s.start_ts {
                        return Err(StoreError::OutOfOrder { id, ts, expected: s.start_ts + 1 });
                    }
                    s.interval = Some(ts - s.start_ts);
                }
                (_, Some(interval)) => {
                    let expected = s.last_ts + interval;
                    if ts != expected {
                        return Err(StoreError::OutOfOrder { id, ts, expected });
                    }
                }
                (_, None) => unreachable!("interval fixed at the second append"),
            }
            // Seal policy: cut before the point that would overflow the
            // chunk's point budget or time span.
            let must_seal = s.active.as_ref().is_some_and(|a| {
                a.len() >= self.config.max_chunk_points
                    || self.config.chunk_span.is_some_and(|span| ts - a.start_ts() >= span)
            });
            if must_seal {
                seal_active(id, &mut s)?;
            }
            let (codec, eps) = (s.codec, s.eps);
            s.active.get_or_insert_with(|| ActiveChunk::new(codec, eps)).push(ts, value);
            s.last_ts = ts;
            s.count += 1;
            s.generation += 1;
        }
        Ok(())
    }

    /// Registers `id` and ingests a whole source in one call (create,
    /// bulk-append, seal). The convenience path the evaluation grid uses
    /// to stage datasets.
    pub fn ingest(
        &self,
        id: SeriesId,
        codec: ChunkCodec,
        eps: f64,
        source: &dyn SeriesSource,
    ) -> Result<(), StoreError> {
        self.create_series(id, codec, eps)?;
        self.append_batch(id, source.iter_points().map(|p| (p.timestamp, p.value)))?;
        self.seal_series(id)
    }

    /// Seals `id`'s active chunk, if any.
    pub fn seal_series(&self, id: SeriesId) -> Result<(), StoreError> {
        let shard = self.shard(id)?;
        let mut s = shard.lock();
        seal_active(id, &mut s)
    }

    /// Total points ingested into `id`.
    pub fn series_len(&self, id: SeriesId) -> Result<usize, StoreError> {
        Ok(self.shard(id)?.lock().count)
    }

    /// Number of sealed chunks behind `id`.
    pub fn num_chunks(&self, id: SeriesId) -> Result<usize, StoreError> {
        Ok(self.shard(id)?.lock().sealed.len())
    }

    /// Sum of sealed wire bytes (header + payload) behind `id`.
    pub fn sealed_bytes(&self, id: SeriesId) -> Result<usize, StoreError> {
        Ok(self.shard(id)?.lock().sealed.iter().map(|c| c.wire_len()).sum())
    }

    /// A read snapshot of `id`. Sealed chunks are shared by reference; an
    /// open chunk is snapshot-sealed (the live encoder is untouched, so
    /// reading does not perturb segmentation) and decoded once, both
    /// cached until the next append.
    pub fn read(&self, id: SeriesId) -> Result<StoreSeries, StoreError> {
        let shard = self.shard(id)?;
        let mut guard = shard.lock();
        let s = &mut *guard;
        let mut chunks = s.sealed.clone();
        let mut tail = None;
        if let Some(active) = &s.active {
            // Reuse the cached snapshot while the series is clean; re-seal
            // and decode (and re-tag the cache) only after new appends.
            if s.snapshot.as_ref().is_none_or(|snap| snap.generation != s.generation) {
                let frame = active.clone().seal(s.seal_interval(), s.eps)?;
                let values = frame.decode()?.into_values().into();
                s.snapshot =
                    Some(Snapshot { generation: s.generation, frame: Arc::new(frame), values });
            }
            let snap = s.snapshot.as_ref().expect("refreshed above");
            chunks.push(Arc::clone(&snap.frame));
            tail = Some(Arc::clone(&snap.values));
        }
        Ok(StoreSeries::new(s.start_ts, s.seal_interval(), chunks, tail))
    }
}

/// Seals the shard's active chunk and records the store telemetry
/// (ingest counters flush at seal so the append hot path stays counter
/// free).
fn seal_active(id: SeriesId, s: &mut Shard) -> Result<(), StoreError> {
    let Some(active) = s.active.take() else { return Ok(()) };
    // The cached snapshot covered the open chunk that is being sealed;
    // drop it so the frame's memory is released promptly.
    s.snapshot = None;
    s.generation += 1;
    let started = std::time::Instant::now();
    let points = active.len();
    let interval = s.seal_interval();
    let chunk = match active.seal(interval, s.eps) {
        Ok(c) => c,
        Err(e) => return Err(annotate(id, e)),
    };
    let label = [("codec", chunk.codec().name())];
    telemetry::counter_add("store_points_ingested_total", &[], points as u64);
    telemetry::counter_add("store_chunks_sealed_total", &label, 1);
    telemetry::observe("store_seal_seconds", &label, telemetry::secs(started.elapsed()));
    s.sealed.push(Arc::new(chunk));
    Ok(())
}

fn annotate(id: SeriesId, e: StoreError) -> StoreError {
    match e {
        StoreError::Corrupt(msg) => StoreError::Corrupt(format!("series {id}: {msg}")),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::series::RegularTimeSeries;

    pub(crate) fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|i| 40.0 + 10.0 * (i as f64 * 0.13).sin() + (i % 7) as f64 * 0.5).collect()
    }

    #[test]
    fn gorilla_roundtrip_is_lossless_across_chunks() {
        let store = TsStore::new(StoreConfig { max_chunk_points: 64, chunk_span: None });
        let id = SeriesId(7);
        let values = wave(333);
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        store
            .append_batch(id, values.iter().enumerate().map(|(i, &v)| (100 + i as i64 * 60, v)))
            .unwrap();
        store.seal_series(id).unwrap();

        assert_eq!(store.series_len(id).unwrap(), 333);
        assert_eq!(store.num_chunks(id).unwrap(), 6); // ceil(333 / 64)

        let view = store.read(id).unwrap();
        assert_eq!(view.len(), 333);
        assert_eq!(view.start(), 100);
        assert_eq!(view.interval(), 60);
        let decoded: Vec<f64> = view.iter_values().collect();
        assert_eq!(decoded, values);
        let times: Vec<i64> = view.iter_points().map(|p| p.timestamp).collect();
        assert_eq!(times[0], 100);
        assert_eq!(times[332], 100 + 332 * 60);
    }

    #[test]
    fn read_snapshots_the_open_chunk_without_sealing_it() {
        let store = TsStore::new(StoreConfig::default());
        let id = SeriesId(1);
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        store.append_batch(id, (0..10).map(|i| (i * 5, i as f64))).unwrap();

        let view = store.read(id).unwrap();
        assert_eq!(view.len(), 10);
        assert_eq!(view.num_chunks(), 1);
        // The open chunk is still open: nothing was sealed by the read.
        assert_eq!(store.num_chunks(id).unwrap(), 0);

        // Appending after the snapshot keeps working and a later read sees
        // the full series.
        store.append_batch(id, (10..20).map(|i| (i * 5, i as f64))).unwrap();
        let view = store.read(id).unwrap();
        let all: Vec<f64> = view.iter_values().collect();
        assert_eq!(all, (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_snapshots_of_an_unchanged_series_reuse_the_sealed_frame() {
        let store = TsStore::new(StoreConfig::default());
        let id = SeriesId(21);
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        store.append_batch(id, (0..50).map(|i| (i * 30, (i as f64).sin()))).unwrap();

        // Two reads with no intervening appends must share the exact same
        // snapshot-sealed frame (pointer equality through the Arc), i.e.
        // the second read did not re-encode the open chunk.
        let v1 = store.read(id).unwrap();
        let v2 = store.read(id).unwrap();
        let f1 = v1.chunks().last().unwrap();
        let f2 = v2.chunks().last().unwrap();
        assert!(std::ptr::eq(f1, f2), "unchanged series must reuse the cached snapshot frame");

        // An append dirties the generation: the next read re-encodes (a
        // different frame) and sees the new point.
        store.append_batch(id, [(50 * 30, 9.25)]).unwrap();
        let v3 = store.read(id).unwrap();
        let f3 = v3.chunks().last().unwrap();
        assert!(!std::ptr::eq(f1, f3), "append must invalidate the cached snapshot");
        assert_eq!(v3.len(), 51);
        assert_eq!(v3.iter_values().last().unwrap(), 9.25);

        // The refreshed snapshot is itself cached again.
        let v4 = store.read(id).unwrap();
        assert!(std::ptr::eq(f3, v4.chunks().last().unwrap()));

        // Sealing drops the cache; a sealed-only series reads straight
        // from the immutable chunk list.
        store.seal_series(id).unwrap();
        let v5 = store.read(id).unwrap();
        assert_eq!(v5.len(), 51);
        assert_eq!(v5.num_chunks(), 1);
    }

    #[test]
    fn lossy_codecs_respect_their_bound() {
        for codec in [ChunkCodec::Pmc, ChunkCodec::Swing, ChunkCodec::Sz] {
            let eps = 0.05;
            let store = TsStore::new(StoreConfig { max_chunk_points: 100, chunk_span: None });
            let id = SeriesId(9);
            let values = wave(257);
            let series = RegularTimeSeries::new(0, 15, values.clone()).unwrap();
            store.ingest(id, codec, eps, &series).unwrap();

            let view = store.read(id).unwrap();
            assert_eq!(view.len(), values.len());
            let decoded: Vec<f64> = view.iter_values().collect();
            assert!(
                compression::find_bound_violation(&values, &decoded, eps, 1e-9).is_none(),
                "{} violates its bound",
                codec.name()
            );
        }
    }

    #[test]
    fn chunk_span_policy_cuts_by_time() {
        let store = TsStore::new(StoreConfig { max_chunk_points: 10_000, chunk_span: Some(600) });
        let id = SeriesId(3);
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        // 60s cadence, 600s span → 10 points per chunk.
        store.append_batch(id, (0..35).map(|i| (i * 60, i as f64))).unwrap();
        store.seal_series(id).unwrap();
        assert_eq!(store.num_chunks(id).unwrap(), 4);
        let lens: Vec<usize> = store.read(id).unwrap().chunks().map(|c| c.len()).collect();
        assert_eq!(lens, vec![10, 10, 10, 5]);
    }

    #[test]
    fn chunks_past_the_16bit_segment_length_seal_the_batch_frame() {
        // A seal policy lax enough to let one chunk exceed u16::MAX points
        // keeps a constant run as one segment; the frame writer splits it,
        // exactly as the batch compressor does.
        use compression::PeblcCompressor;
        let store = TsStore::new(StoreConfig { max_chunk_points: 100_000, chunk_span: None });
        let id = SeriesId(11);
        let series = RegularTimeSeries::new(0, 60, vec![5.0; 70_000]).unwrap();
        store.ingest(id, ChunkCodec::Pmc, 0.1, &series).unwrap();
        let view = store.read(id).unwrap();
        let chunk = view.chunks().next().unwrap();
        assert_eq!(chunk.num_segments(), 1);
        assert_eq!(chunk.decode().unwrap().values(), series.values());
        let streamed = compression::compress_source(&view, compression::Method::Pmc, 0.1).unwrap();
        let batch = compression::Pmc.compress(&series, 0.1).unwrap();
        assert_eq!(streamed.bytes, batch.bytes);
    }

    #[test]
    fn cadence_violations_are_rejected() {
        let store = TsStore::new(StoreConfig::default());
        let id = SeriesId(2);
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        store.append_batch(id, [(0, 1.0)]).unwrap();
        // Second point must move forward.
        assert!(matches!(store.append_batch(id, [(-5, 2.0)]), Err(StoreError::OutOfOrder { .. })));
        store.append_batch(id, [(10, 2.0)]).unwrap();
        // Third point must land exactly one interval later.
        let err = store.append_batch(id, [(25, 3.0)]).unwrap_err();
        match err {
            StoreError::OutOfOrder { ts, expected, .. } => {
                assert_eq!(ts, 25);
                assert_eq!(expected, 20);
            }
            other => panic!("unexpected error: {other}"),
        }
        // The shard is still usable after a rejected append.
        store.append_batch(id, [(20, 3.0)]).unwrap();
        assert_eq!(store.series_len(id).unwrap(), 3);
    }

    #[test]
    fn series_management_errors() {
        let store = TsStore::default();
        let id = SeriesId(5);
        assert!(matches!(store.append_batch(id, [(0, 1.0)]), Err(StoreError::UnknownSeries(_))));
        store.create_series(id, ChunkCodec::Gorilla, 0.0).unwrap();
        assert!(matches!(
            store.create_series(id, ChunkCodec::Pmc, 0.1),
            Err(StoreError::DuplicateSeries(_))
        ));
        assert_eq!(store.num_series(), 1);
    }

    #[test]
    fn store_view_roundtrips_through_wire_format() {
        let store = TsStore::new(StoreConfig { max_chunk_points: 50, chunk_span: None });
        let id = SeriesId(11);
        let series = RegularTimeSeries::new(0, 60, wave(120)).unwrap();
        store.ingest(id, ChunkCodec::Gorilla, 0.0, &series).unwrap();
        let view = store.read(id).unwrap();
        for chunk in view.chunks() {
            let bytes = chunk.to_bytes();
            let mut r = compression::ByteReader::new(&bytes);
            let back = SealedChunk::from_bytes(&mut r).unwrap();
            assert_eq!(&back, chunk);
        }
    }
}
