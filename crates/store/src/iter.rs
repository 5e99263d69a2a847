//! Chunk-at-a-time decoding readers.
//!
//! [`StoreSeries`] is a read snapshot of one series: an ordered list of
//! sealed chunks (including a snapshot-seal of the open chunk at read
//! time). Its [`PointIter`] decodes one chunk at a time, so iterating a
//! series holds at most one chunk's values in memory — the windowers and
//! the streaming re-encoders consume it through
//! [`tsdata::series::SeriesSource`] without ever materialising the series.
//!
//! A read decodes only the chunks it covers: [`Iterator::nth`] (which
//! `skip` calls) steps over whole chunks by their header point count, so
//! a trailing window costs at most one chunk decode plus the window. The
//! snapshot of the open chunk carries its decoded values, cached by the
//! store beside the frame, so a window inside it decodes nothing.

use std::borrow::Cow;
use std::sync::Arc;

use tsdata::series::{DataPoint, SeriesSource};

use crate::chunk::SealedChunk;

/// A read-only, chunk-backed view of one series.
#[derive(Debug, Clone)]
pub struct StoreSeries {
    start: i64,
    interval: i64,
    len: usize,
    chunks: Vec<Arc<SealedChunk>>,
    /// The last chunk's decoded values, when the store cached them.
    tail: Option<Arc<[f64]>>,
}

impl StoreSeries {
    pub(crate) fn new(
        start: i64,
        interval: i64,
        chunks: Vec<Arc<SealedChunk>>,
        tail: Option<Arc<[f64]>>,
    ) -> StoreSeries {
        let len = chunks.iter().map(|c| c.len()).sum();
        StoreSeries { start, interval, len, chunks, tail }
    }

    /// Number of sealed chunks backing the view.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Iterates the sealed chunks in time order.
    pub fn chunks(&self) -> ChunkIter<'_> {
        ChunkIter { inner: self.chunks.iter() }
    }

    /// Iterates decoded points, one chunk resident at a time.
    pub fn points(&self) -> PointIter<'_> {
        PointIter {
            chunks: self.chunks.iter(),
            tail: self.tail.as_deref(),
            values: Cow::Borrowed(&[]),
            pos: 0,
            next_ts: self.start,
            interval: self.interval,
        }
    }
}

impl SeriesSource for StoreSeries {
    fn len(&self) -> usize {
        self.len
    }

    fn start(&self) -> i64 {
        self.start
    }

    fn interval(&self) -> i64 {
        self.interval
    }

    fn iter_values(&self) -> Box<dyn Iterator<Item = f64> + '_> {
        Box::new(ValueIter(self.points()))
    }

    fn iter_points(&self) -> Box<dyn Iterator<Item = DataPoint> + '_> {
        Box::new(self.points())
    }
}

/// Iterator over a view's sealed chunks.
#[derive(Debug, Clone)]
pub struct ChunkIter<'a> {
    inner: std::slice::Iter<'a, Arc<SealedChunk>>,
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = &'a SealedChunk;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|c| c.as_ref())
    }
}

/// Streaming point reader: decodes the next chunk only when the previous
/// one is exhausted, and [`nth`](Iterator::nth) decodes only the chunk it
/// lands in.
///
/// Chunks in a [`StoreSeries`] were sealed by this store (or passed the
/// total [`SealedChunk::from_bytes`] validation), so a decode failure here
/// is an internal invariant violation and panics; untrusted bytes are
/// rejected before they can reach an iterator.
#[derive(Debug)]
pub struct PointIter<'a> {
    chunks: std::slice::Iter<'a, Arc<SealedChunk>>,
    tail: Option<&'a [f64]>,
    /// The current chunk's values: decoded here, or the cached tail.
    values: Cow<'a, [f64]>,
    /// Index into `values` of the next point.
    pos: usize,
    next_ts: i64,
    interval: i64,
}

impl PointIter<'_> {
    /// Makes `chunk`, the one `chunks` just yielded, the current chunk.
    fn load(&mut self, chunk: &SealedChunk) {
        self.values = match self.tail {
            Some(tail) if self.chunks.len() == 0 => Cow::Borrowed(tail),
            _ => Cow::Owned(chunk.decode().expect("store-sealed chunk decodes").into_values()),
        };
        self.pos = 0;
        self.next_ts = chunk.start_ts();
    }
}

impl Iterator for PointIter<'_> {
    type Item = DataPoint;

    fn next(&mut self) -> Option<DataPoint> {
        loop {
            if let Some(&value) = self.values.get(self.pos) {
                self.pos += 1;
                let timestamp = self.next_ts;
                self.next_ts += self.interval;
                return Some(DataPoint { timestamp, value });
            }
            let chunk = self.chunks.next()?;
            self.load(chunk);
        }
    }

    fn nth(&mut self, mut n: usize) -> Option<DataPoint> {
        let left = self.values.len() - self.pos;
        if n >= left {
            n -= left;
            self.values = Cow::Borrowed(&[]);
            self.pos = 0;
            // Whole chunks before the target point are skipped by their
            // header count, undecoded.
            let chunk = loop {
                let chunk = self.chunks.next()?;
                if n < chunk.len() {
                    break chunk;
                }
                n -= chunk.len();
            };
            self.load(chunk);
        }
        self.pos += n;
        self.next_ts += n as i64 * self.interval;
        self.next()
    }
}

/// The values of a [`PointIter`], with its chunk-skipping `nth`.
struct ValueIter<'a>(PointIter<'a>);

impl Iterator for ValueIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next().map(|p| p.value)
    }

    fn nth(&mut self, n: usize) -> Option<f64> {
        self.0.nth(n).map(|p| p.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::wave;
    use crate::{ChunkCodec, SeriesId, StoreConfig, TsStore};

    const INTERVAL: i64 = 60;

    /// A series of `n` points in `chunk`-point chunks, its last chunk left
    /// open unless `seal`.
    fn stored(codec: ChunkCodec, chunk: usize, n: usize, seal: bool) -> (TsStore, SeriesId) {
        let store = TsStore::new(StoreConfig { max_chunk_points: chunk, chunk_span: None });
        let id = SeriesId(1);
        let eps = if codec == ChunkCodec::Gorilla { 0.0 } else { 0.05 };
        store.create_series(id, codec, eps).unwrap();
        let points = wave(n).into_iter().enumerate().map(|(i, v)| (i as i64 * INTERVAL, v));
        store.append_batch(id, points).unwrap();
        if seal {
            store.seal_series(id).unwrap();
        }
        (store, id)
    }

    /// Every chunk decoded on its own and concatenated: the oracle the
    /// skipping reads must match.
    fn full_decode(view: &StoreSeries) -> Vec<DataPoint> {
        view.chunks().flat_map(|c| c.decode().unwrap().iter_points().collect::<Vec<_>>()).collect()
    }

    fn bits(points: &[DataPoint]) -> Vec<(i64, u64)> {
        points.iter().map(|p| (p.timestamp, p.value.to_bits())).collect()
    }

    /// A stand-in for `c` with the same header whose payload cannot decode.
    fn undecodable(c: &SealedChunk) -> Arc<SealedChunk> {
        let garbage = SealedChunk::from_parts(
            c.codec(),
            c.len(),
            1,
            c.start_ts(),
            INTERVAL,
            0.0,
            vec![0xA5; 3],
        );
        assert!(garbage.decode().is_err(), "the stand-in must not decode");
        Arc::new(garbage)
    }

    #[test]
    fn skipped_reads_equal_the_full_decode_suffix() {
        let codecs = [ChunkCodec::Gorilla, ChunkCodec::Pmc, ChunkCodec::Swing, ChunkCodec::Sz];
        // Chunks shorter and longer than a 96-point window, so a window
        // spans several chunks or sits inside one.
        for (codec, chunk, seal) in codecs
            .into_iter()
            .flat_map(|c| [40, 150].map(|chunk| (c, chunk)))
            .flat_map(|(c, chunk)| [false, true].map(|seal| (c, chunk, seal)))
        {
            let (store, id) = stored(codec, chunk, 333, seal);
            let view = store.read(id).unwrap();
            let full = full_decode(&view);
            let len = view.len();
            assert_eq!(full.len(), len);
            let values: Vec<u64> = full.iter().map(|p| p.value.to_bits()).collect();
            let case = format!("{} chunk {chunk} sealed {seal}", codec.name());
            for k in 0..=len + 1 {
                let skipped: Vec<u64> = view.iter_values().skip(k).map(f64::to_bits).collect();
                assert_eq!(skipped, values[k.min(len)..], "{case}: values after skip {k}");
                let points: Vec<DataPoint> = view.iter_points().skip(k).collect();
                assert_eq!(bits(&points), bits(&full[k.min(len)..]), "{case}: points after {k}");
            }
            for n in [len, len + 1, len + 100] {
                let mut it = view.iter_values();
                assert_eq!(it.nth(n), None, "{case}: nth({n}) is past the end");
                assert_eq!(it.next(), None, "{case}: nth({n}) leaves the iterator exhausted");
                let mut it = view.points();
                assert!(it.nth(n).is_none() && it.next().is_none(), "{case}: points nth({n})");
            }
            // `nth` from the middle of a chunk, then again across chunks.
            let mut it = view.points();
            assert_eq!(it.next().map(|p| p.value.to_bits()), Some(values[0]));
            assert_eq!(it.nth(5).map(|p| p.value.to_bits()), Some(values[6]));
            assert_eq!(it.nth(200).map(|p| p.timestamp), Some(full[207].timestamp));
        }
    }

    #[test]
    fn a_window_read_decodes_only_the_chunks_covering_it() {
        for seal in [false, true] {
            let (store, id) = stored(ChunkCodec::Gorilla, 64, 1000, seal);
            let view = store.read(id).unwrap();
            let full = full_decode(&view);
            let window = 96;
            let first = view.len() - window;
            // Replace every chunk that ends before the window with a frame
            // of the same count whose payload cannot decode.
            let mut seen = 0;
            let chunks: Vec<Arc<SealedChunk>> = view
                .chunks
                .iter()
                .map(|c| {
                    seen += c.len();
                    if seen > first {
                        Arc::clone(c)
                    } else {
                        undecodable(c)
                    }
                })
                .collect();
            let poisoned = StoreSeries::new(view.start, view.interval, chunks, view.tail.clone());
            let read: Vec<DataPoint> = poisoned.iter_points().skip(first).collect();
            assert_eq!(bits(&read), bits(&full[first..]), "sealed {seal}");
            let values: Vec<u64> = poisoned.iter_values().skip(first).map(f64::to_bits).collect();
            assert_eq!(values, read.iter().map(|p| p.value.to_bits()).collect::<Vec<_>>());
            assert_eq!(values.len(), window);
        }
    }

    #[test]
    fn an_unchanged_series_shares_its_decoded_tail() {
        let (store, id) = stored(ChunkCodec::Gorilla, 4096, 50, false);
        let (v1, v2) = (store.read(id).unwrap(), store.read(id).unwrap());
        let t1 = v1.tail.clone().expect("an open chunk has a cached tail");
        assert!(Arc::ptr_eq(&t1, v2.tail.as_ref().unwrap()), "two reads share one decode");
        assert_eq!(*t1, *v1.chunks().last().unwrap().decode().unwrap().values());

        // Reads take the open chunk's values from the cache: a view whose
        // frame cannot decode still reads.
        let frame = undecodable(&v1.chunks[0]);
        let cached = StoreSeries::new(v1.start, v1.interval, vec![frame], v1.tail);
        assert_eq!(cached.iter_values().skip(40).collect::<Vec<_>>(), t1[40..]);

        // An append invalidates the cache; the next read caches afresh.
        store.append_batch(id, [(50 * INTERVAL, 9.25)]).unwrap();
        let v3 = store.read(id).unwrap();
        let t3 = v3.tail.clone().unwrap();
        assert!(!Arc::ptr_eq(&t1, &t3), "an append must invalidate the cached tail");
        assert_eq!((t3.len(), t3[50]), (51, 9.25));
        assert!(Arc::ptr_eq(&t3, store.read(id).unwrap().tail.as_ref().unwrap()));

        // A sealed series has no open chunk and caches nothing.
        store.seal_series(id).unwrap();
        assert!(store.read(id).unwrap().tail.is_none());
    }
}
