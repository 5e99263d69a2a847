//! The per-series active append chunk.
//!
//! Each series has at most one open chunk accepting points, and each chunk
//! pushes into the one encoder its codec has — the same encoder the batch
//! `compress` folds over (see `compression::streaming`). Gorilla chunks
//! append to the delta-of-delta timestamp and XOR value encoders
//! (`compression::timestamps::StreamAppender`,
//! `compression::gorilla::ValueAppender`); PMC/Swing chunks keep only the
//! open window plus closed segments; SZ (block-based) buffers the chunk's
//! values. Sealing drains the encoder and writes the codec's ordinary frame,
//! so a sealed payload is byte-identical to the batch frame of the chunk's
//! values.

use compression::gorilla::ValueAppender;
use compression::pmc::PmcSegment;
use compression::swing::SwingSegment;
use compression::timestamps::StreamAppender;
use compression::{PeblcCompressor, StreamingPmc, StreamingSwing, Sz};
use tsdata::series::RegularTimeSeries;

use crate::chunk::{ChunkCodec, SealedChunk};
use crate::StoreError;

#[derive(Debug, Clone)]
enum Enc {
    Gorilla { ts: StreamAppender, vals: ValueAppender },
    Pmc { enc: StreamingPmc, segs: Vec<PmcSegment> },
    Swing { enc: StreamingSwing, segs: Vec<SwingSegment> },
    Sz { buf: Vec<f64> },
}

/// One open, append-only chunk. `Clone` so reads can snapshot and seal a
/// copy without disturbing the live encoder.
#[derive(Debug, Clone)]
pub(crate) struct ActiveChunk {
    codec: ChunkCodec,
    start_ts: i64,
    last_ts: i64,
    count: usize,
    enc: Enc,
}

impl ActiveChunk {
    pub(crate) fn new(codec: ChunkCodec, eps: f64) -> ActiveChunk {
        let enc = match codec {
            ChunkCodec::Gorilla => {
                Enc::Gorilla { ts: StreamAppender::new(), vals: ValueAppender::new() }
            }
            ChunkCodec::Pmc => Enc::Pmc { enc: StreamingPmc::new(eps), segs: Vec::new() },
            ChunkCodec::Swing => Enc::Swing { enc: StreamingSwing::new(eps), segs: Vec::new() },
            ChunkCodec::Sz => Enc::Sz { buf: Vec::new() },
        };
        ActiveChunk { codec, start_ts: 0, last_ts: 0, count: 0, enc }
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn start_ts(&self) -> i64 {
        self.start_ts
    }

    /// Appends one point. Ordering/regularity is enforced by the owning
    /// shard; the chunk only records.
    pub(crate) fn push(&mut self, ts: i64, value: f64) {
        if self.count == 0 {
            self.start_ts = ts;
        }
        self.last_ts = ts;
        self.count += 1;
        match &mut self.enc {
            Enc::Gorilla { ts: tenc, vals } => {
                tenc.push(ts);
                vals.push(value);
            }
            Enc::Pmc { enc, segs } => segs.extend(enc.push(value)),
            Enc::Swing { enc, segs } => segs.extend(enc.push(value)),
            Enc::Sz { buf } => buf.push(value),
        }
    }

    /// Drains the encoder and freezes the chunk. `interval` is the series
    /// sampling interval (the shard's authority, since a one-point chunk
    /// cannot infer it).
    pub(crate) fn seal(self, interval: i64, eps: f64) -> Result<SealedChunk, StoreError> {
        debug_assert!(self.count > 0, "sealing an empty chunk");
        let (payload, num_segments) = match self.enc {
            Enc::Gorilla { ts, vals } => {
                let mut payload = ts.into_bytes();
                payload.extend_from_slice(&vals.into_bytes());
                (payload, 1)
            }
            Enc::Pmc { mut enc, mut segs } => {
                segs.extend(enc.drain());
                let n = segs.len();
                (compression::pmc::encode_segments(self.start_ts, interval, &segs)?, n)
            }
            Enc::Swing { mut enc, mut segs } => {
                segs.extend(enc.drain());
                let n = segs.len();
                (compression::swing::encode_segments(self.start_ts, interval, &segs)?, n)
            }
            Enc::Sz { buf } => {
                let series = RegularTimeSeries::new(self.start_ts, interval, buf)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                let frame = Sz.compress(&series, eps)?;
                (frame.bytes, frame.num_segments)
            }
        };
        Ok(SealedChunk::from_parts(
            self.codec,
            self.count,
            num_segments,
            self.start_ts,
            interval,
            eps,
            payload,
        ))
    }
}
