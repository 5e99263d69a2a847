//! Shared timestamp codec (§3.2).
//!
//! The paper stores, for every method, "the first timestamp as a 32-bit
//! integer, the sampling interval as a 16-bit integer, and the length of the
//! generated segments as a 16-bit integer" so that the methods are directly
//! comparable. This module implements that header and the segment-length
//! stream; the per-method payloads carry only model coefficients.
//!
//! For *irregular* timestamp vectors the module also provides a
//! self-delimiting stream codec, [`StreamAppender`]/[`decode_stream`]:
//! Gorilla-style per-value delta-of-delta prefix codes behind a leading tag
//! byte (DESIGN.md §11). The store's Gorilla chunks write their timestamps
//! through it.

use crate::bitstream::{BitReader, BitWriter};
use crate::reader::ByteReader;

/// Header length: 4-byte start + 2-byte interval.
pub(crate) const HEADER_LEN: usize = 6;

/// The maximum representable segment length (16-bit).
const MAX_SEGMENT_LEN: usize = u16::MAX as usize;

/// Errors from timestamp (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimestampError {
    /// The start timestamp does not fit a 32-bit integer.
    StartOutOfRange(i64),
    /// The interval does not fit a 16-bit unsigned integer.
    IntervalOutOfRange(i64),
    /// The buffer is too short to contain a header.
    Truncated,
    /// A timestamp stream is structurally invalid (bad tag, inconsistent
    /// counts).
    Corrupt(String),
}

impl std::fmt::Display for TimestampError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimestampError::StartOutOfRange(t) => write!(f, "start {t} exceeds 32 bits"),
            TimestampError::IntervalOutOfRange(i) => write!(f, "interval {i} exceeds 16 bits"),
            TimestampError::Truncated => write!(f, "timestamp header truncated"),
            TimestampError::Corrupt(msg) => write!(f, "timestamp stream corrupt: {msg}"),
        }
    }
}

impl std::error::Error for TimestampError {}

/// Encodes the header. Panics only via `try_encode_header`'s error path in
/// release use; prefer the fallible variant for untrusted input.
pub fn encode_header(start: i64, interval: i64) -> Vec<u8> {
    try_encode_header(start, interval).expect("timestamps in range for generated data")
}

/// Fallible header encoding.
pub(crate) fn try_encode_header(start: i64, interval: i64) -> Result<Vec<u8>, TimestampError> {
    let start32 = i32::try_from(start).map_err(|_| TimestampError::StartOutOfRange(start))?;
    let interval16 =
        u16::try_from(interval).map_err(|_| TimestampError::IntervalOutOfRange(interval))?;
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&start32.to_le_bytes());
    out.extend_from_slice(&interval16.to_le_bytes());
    Ok(out)
}

/// Decodes a header from a [`ByteReader`], leaving the cursor at the
/// first payload byte.
pub(crate) fn read_header(r: &mut ByteReader<'_>) -> Result<(i64, i64), TimestampError> {
    let start = r.read_i32_le().map_err(|_| TimestampError::Truncated)? as i64;
    let interval = r.read_u16_le().map_err(|_| TimestampError::Truncated)? as i64;
    Ok((start, interval))
}

/// Splits a logical segment length into 16-bit chunks, since the paper's
/// format caps segment lengths at 16 bits. Each chunk shares the segment's
/// model, so splitting preserves the reconstruction exactly.
pub(crate) fn split_segment_len(len: usize) -> impl Iterator<Item = u16> {
    let full = len / MAX_SEGMENT_LEN;
    let rem = (len % MAX_SEGMENT_LEN) as u16;
    std::iter::repeat_n(u16::MAX, full).chain((rem > 0).then_some(rem))
}

// ---------------------------------------------------------------------------
// Irregular timestamp streams
// ---------------------------------------------------------------------------

/// Stream tag of the varbit format, the only one written. Any other tag
/// decodes as [`TimestampError::Corrupt`].
const STREAM_VARBIT: u8 = 0;

/// Encodes a whole vector by folding `ts` through one [`StreamAppender`].
pub fn encode_stream_varbit(ts: &[i64]) -> Vec<u8> {
    let mut a = StreamAppender::with_capacity(ts.len());
    for &t in ts {
        a.push(t);
    }
    a.into_bytes()
}

/// The one stream encoder: a stateful point-at-a-time delta-of-delta
/// coder. [`encode_stream_varbit`] folds a whole vector through it and the
/// store appends chunk timestamps to it; both decode through the ordinary
/// [`decode_stream`].
#[derive(Debug, Clone)]
pub struct StreamAppender {
    first: i64,
    prev: i64,
    prev_delta: i64,
    count: usize,
    bits: BitWriter,
}

impl Default for StreamAppender {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamAppender {
    /// Creates an empty appender.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty appender presized for `n` timestamps at ~10 bits
    /// each, which covers a jittered cadence without reallocating.
    fn with_capacity(n: usize) -> Self {
        StreamAppender {
            first: 0,
            prev: 0,
            prev_delta: 0,
            count: 0,
            bits: BitWriter::with_capacity(n * 10),
        }
    }

    /// Appends one timestamp (must be pushed in stream order): one
    /// Gorilla-style prefix code per delta-of-delta ('0' for zero, then
    /// 7/9/12-bit windows, then a raw 64-bit escape).
    #[inline]
    pub fn push(&mut self, ts: i64) {
        if self.count == 0 {
            self.first = ts;
        } else {
            let d = ts.wrapping_sub(self.prev);
            let dod = d.wrapping_sub(self.prev_delta);
            self.prev_delta = d;
            if dod == 0 {
                self.bits.write_bit(false);
            } else if (-63..=64).contains(&dod) {
                self.bits.write_bits(0b10, 2);
                self.bits.write_bits((dod + 63) as u64, 7);
            } else if (-255..=256).contains(&dod) {
                self.bits.write_bits(0b110, 3);
                self.bits.write_bits((dod + 255) as u64, 9);
            } else if (-2047..=2048).contains(&dod) {
                self.bits.write_bits(0b1110, 4);
                self.bits.write_bits((dod + 2047) as u64, 12);
            } else {
                self.bits.write_bits(0b1111, 4);
                self.bits.write_bits(dod as u64, 64);
            }
        }
        self.prev = ts;
        self.count += 1;
    }

    /// Consumes the appender into a self-delimiting varbit stream.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.count);
        out.push(STREAM_VARBIT);
        out.extend_from_slice(&(self.count as u32).to_le_bytes());
        if self.count == 0 {
            return out;
        }
        out.extend_from_slice(&self.first.to_le_bytes());
        let payload = self.bits.into_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Decodes a stream written by [`StreamAppender`]. Total: malformed input,
/// an unknown tag included, returns [`TimestampError::Corrupt`] /
/// [`TimestampError::Truncated`], never panics, and preallocation is
/// bounded by the remaining input.
pub fn decode_stream(r: &mut ByteReader<'_>) -> Result<Vec<i64>, TimestampError> {
    let tag = r.read_u8().map_err(|_| TimestampError::Truncated)?;
    if tag != STREAM_VARBIT {
        return Err(TimestampError::Corrupt(format!("unknown stream tag {tag}")));
    }
    let n = r.read_u32_le().map_err(|_| TimestampError::Truncated)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let first = r.read_u64_le().map_err(|_| TimestampError::Truncated)? as i64;
    let payload_len = r.read_u32_le().map_err(|_| TimestampError::Truncated)? as usize;
    let payload = r.read_bytes(payload_len).map_err(|_| TimestampError::Truncated)?;
    if n - 1 > payload_len * 8 {
        return Err(TimestampError::Corrupt(format!(
            "{n} timestamps cannot fit {payload_len} payload bytes"
        )));
    }
    let mut out = Vec::with_capacity(n);
    out.push(first);
    let mut bits = BitReader::new(payload);
    let mut t = first;
    let mut delta = 0i64;
    let corrupt = |_| TimestampError::Corrupt("varbit payload exhausted".into());
    for _ in 1..n {
        let dod = if !bits.read_bit().map_err(corrupt)? {
            0
        } else if !bits.read_bit().map_err(corrupt)? {
            bits.read_bits(7).map_err(corrupt)? as i64 - 63
        } else if !bits.read_bit().map_err(corrupt)? {
            bits.read_bits(9).map_err(corrupt)? as i64 - 255
        } else if !bits.read_bit().map_err(corrupt)? {
            bits.read_bits(12).map_err(corrupt)? as i64 - 2047
        } else {
            bits.read_bits(64).map_err(corrupt)? as i64
        };
        delta = delta.wrapping_add(dod);
        t = t.wrapping_add(delta);
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let b = encode_header(1_672_531_200, 900);
        assert_eq!(b.len(), HEADER_LEN);
        let mut r = ByteReader::new(&b);
        assert_eq!(read_header(&mut r).unwrap(), (1_672_531_200, 900));
        assert!(r.is_empty());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            try_encode_header(i64::MAX, 900),
            Err(TimestampError::StartOutOfRange(_))
        ));
        assert!(matches!(try_encode_header(0, 70_000), Err(TimestampError::IntervalOutOfRange(_))));
        assert!(matches!(try_encode_header(0, -1), Err(TimestampError::IntervalOutOfRange(_))));
    }

    #[test]
    fn truncated_header() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(read_header(&mut r).unwrap_err(), TimestampError::Truncated);
    }

    fn sample_timestamps(n: usize) -> Vec<i64> {
        // Mostly-regular 15-minute cadence with jitter and occasional gaps:
        // the shape irregular CSV timelines actually have.
        (0..n as i64)
            .map(|i| 1_600_000_000 + i * 900 + (i % 5) * 3 + if i % 97 == 0 { 7200 } else { 0 })
            .collect()
    }

    #[test]
    fn stream_roundtrip() {
        for n in [0usize, 1, 2, 63, 64, 128, 129, 1000] {
            let ts = sample_timestamps(n);
            let bytes = encode_stream_varbit(&ts);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_stream(&mut r).unwrap(), ts, "n={n}");
            assert!(r.is_empty(), "stream must be self-delimiting");
        }
    }

    #[test]
    fn stream_is_self_delimiting_mid_buffer() {
        let ts = sample_timestamps(300);
        let mut buf = encode_stream_varbit(&ts);
        buf.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decode_stream(&mut r).unwrap(), ts);
        assert_eq!(r.rest(), &[0xAA, 0xBB, 0xCC]);
    }

    #[test]
    fn stream_compresses_regular_series() {
        let ts = sample_timestamps(4096);
        let varbit = encode_stream_varbit(&ts);
        // Near-regular cadence: far below the 8 bytes/value of raw i64
        // storage.
        assert!(varbit.len() < ts.len() * 2, "varbit: {} bytes", varbit.len());
    }

    #[test]
    fn stream_extreme_values_survive() {
        let ts = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MAX / 2, i64::MIN / 2];
        let bytes = encode_stream_varbit(&ts);
        assert_eq!(decode_stream(&mut ByteReader::new(&bytes)).unwrap(), ts);
    }

    #[test]
    fn stream_rejects_malformed() {
        let ts = sample_timestamps(200);
        let bytes = encode_stream_varbit(&ts);
        // Any truncation point must error, never panic.
        for cut in [0, 1, 4, 8, 13, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_stream(&mut r).is_err(), "cut={cut}");
        }
        // Unknown tags, 1 included: the retired blocked format's tag.
        for tag in [1, 9] {
            let mut bad = bytes.clone();
            bad[0] = tag;
            assert!(matches!(
                decode_stream(&mut ByteReader::new(&bad)),
                Err(TimestampError::Corrupt(_))
            ));
        }
        // Hostile count over a tiny varbit payload.
        let mut hostile = vec![STREAM_VARBIT];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&0i64.to_le_bytes());
        hostile.extend_from_slice(&1u32.to_le_bytes());
        hostile.push(0x00);
        assert!(decode_stream(&mut ByteReader::new(&hostile)).is_err());
    }

    #[test]
    fn appender_bytes_match_varbit_encoder() {
        for n in [0usize, 1, 2, 63, 64, 129, 1000] {
            let ts = sample_timestamps(n);
            let mut a = StreamAppender::new();
            for &t in &ts {
                a.push(t);
            }
            assert_eq!(a.into_bytes(), encode_stream_varbit(&ts), "n={n}");
        }
        // Extreme dods exercise the raw 64-bit escape.
        let ts = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MAX / 2];
        let mut a = StreamAppender::new();
        for &t in &ts {
            a.push(t);
        }
        assert_eq!(a.into_bytes(), encode_stream_varbit(&ts));
    }

    #[test]
    fn segment_splitting() {
        assert_eq!(split_segment_len(10).collect::<Vec<_>>(), vec![10]);
        assert_eq!(split_segment_len(65_535).collect::<Vec<_>>(), vec![65_535]);
        assert_eq!(split_segment_len(65_536).collect::<Vec<_>>(), vec![65_535, 1]);
        assert_eq!(
            split_segment_len(200_000).collect::<Vec<_>>(),
            vec![65_535, 65_535, 65_535, 3_395]
        );
        assert_eq!(split_segment_len(0).count(), 0);
    }
}
