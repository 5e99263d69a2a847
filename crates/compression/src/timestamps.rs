//! Shared timestamp codec (§3.2).
//!
//! The paper stores, for every method, "the first timestamp as a 32-bit
//! integer, the sampling interval as a 16-bit integer, and the length of the
//! generated segments as a 16-bit integer" so that the methods are directly
//! comparable. This module implements that header and the segment-length
//! stream; the per-method payloads carry only model coefficients.
//!
//! For *irregular* timestamp vectors (raw CSV timelines, streaming segment
//! boundaries) the module also provides a self-delimiting stream codec,
//! [`encode_stream`]/[`decode_stream`], with two wire formats behind a
//! leading tag byte (DESIGN.md §11):
//!
//! * [`STREAM_VARBIT`] — Gorilla-style per-value delta-of-delta prefix
//!   codes, one branch per value: the scalar baseline, and the cheaper
//!   format for short vectors.
//! * [`STREAM_BLOCKED`] — zigzagged delta-of-deltas packed through
//!   [`crate::block`]'s 128-value lanes: branch-free word-level unpacking
//!   on the decode hot path.

use crate::bitstream::{BitReader, BitWriter};
use crate::block;
use crate::reader::ByteReader;

/// Header length: 4-byte start + 2-byte interval.
pub const HEADER_LEN: usize = 6;

/// The maximum representable segment length (16-bit).
pub const MAX_SEGMENT_LEN: usize = u16::MAX as usize;

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
    /// counts, malformed block payload).
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

impl From<block::BlockError> for TimestampError {
    fn from(e: block::BlockError) -> Self {
        TimestampError::Corrupt(e.to_string())
    }
}

impl std::error::Error for TimestampError {}

/// Encodes the header. Panics only via [`try_encode_header`]'s error path in
/// release use; prefer the fallible variant for untrusted input.
pub fn encode_header(start: i64, interval: i64) -> Vec<u8> {
    try_encode_header(start, interval).expect("timestamps in range for generated data")
}

/// Fallible header encoding.
pub fn try_encode_header(start: i64, interval: i64) -> Result<Vec<u8>, TimestampError> {
    let start32 = i32::try_from(start).map_err(|_| TimestampError::StartOutOfRange(start))?;
    let interval16 =
        u16::try_from(interval).map_err(|_| TimestampError::IntervalOutOfRange(interval))?;
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&start32.to_le_bytes());
    out.extend_from_slice(&interval16.to_le_bytes());
    Ok(out)
}

/// Decodes a header, returning `(start, interval, rest)`.
pub fn decode_header(buf: &[u8]) -> Result<(i64, i64, &[u8]), TimestampError> {
    let mut r = ByteReader::new(buf);
    let (start, interval) = read_header(&mut r)?;
    Ok((start, interval, r.rest()))
}

/// Decodes a header from a [`ByteReader`], leaving the cursor at the
/// first payload byte.
pub fn read_header(r: &mut ByteReader<'_>) -> Result<(i64, i64), TimestampError> {
    let start = r.read_i32_le().map_err(|_| TimestampError::Truncated)? as i64;
    let interval = r.read_u16_le().map_err(|_| TimestampError::Truncated)? as i64;
    Ok((start, interval))
}

/// Splits a logical segment length into 16-bit chunks, since the paper's
/// format caps segment lengths at 16 bits. Each chunk shares the segment's
/// model, so splitting preserves the reconstruction exactly.
pub fn split_segment_len(len: usize) -> impl Iterator<Item = u16> {
    let full = len / MAX_SEGMENT_LEN;
    let rem = (len % MAX_SEGMENT_LEN) as u16;
    std::iter::repeat_n(u16::MAX, full).chain((rem > 0).then_some(rem))
}

// ---------------------------------------------------------------------------
// Irregular timestamp streams
// ---------------------------------------------------------------------------

/// Stream tag: per-value variable-width delta-of-delta prefix codes.
pub const STREAM_VARBIT: u8 = 0;
/// Stream tag: blocked delta-of-delta packing via [`crate::block`].
pub const STREAM_BLOCKED: u8 = 1;

/// Below this length the per-block metadata of the blocked format costs
/// more than it saves, so [`encode_stream`] emits varbit instead.
const BLOCKED_MIN_LEN: usize = 64;

/// Encodes an arbitrary (not necessarily regular) timestamp vector,
/// choosing the blocked format for long vectors and varbit for short ones.
/// The output is self-delimiting: [`decode_stream`] leaves the cursor at
/// the first byte past the stream.
pub fn encode_stream(ts: &[i64]) -> Vec<u8> {
    if ts.len() < BLOCKED_MIN_LEN {
        encode_stream_varbit(ts)
    } else {
        encode_stream_blocked(ts)
    }
}

/// Encodes with the blocked format unconditionally: zigzagged
/// delta-of-deltas through [`block::encode_u64s`]'s 128-value lanes.
pub fn encode_stream_blocked(ts: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + ts.len());
    out.push(STREAM_BLOCKED);
    out.extend_from_slice(&(ts.len() as u32).to_le_bytes());
    if ts.is_empty() {
        return out;
    }
    out.extend_from_slice(&ts[0].to_le_bytes());
    out.extend_from_slice(&block::encode_u64s(&block::dod_encode(ts)));
    out
}

/// Encodes with the varbit format unconditionally by folding `ts` through
/// one [`StreamAppender`]. This is the scalar per-value-branch baseline
/// the codecs bench measures the blocked format against.
pub fn encode_stream_varbit(ts: &[i64]) -> Vec<u8> {
    let mut a = StreamAppender::with_capacity(ts.len());
    for &t in ts {
        a.push(t);
    }
    a.into_bytes()
}

/// The one [`STREAM_VARBIT`] encoder: a stateful point-at-a-time
/// delta-of-delta coder. [`encode_stream_varbit`] folds a whole vector
/// through it and the store appends chunk timestamps to it; both decode
/// through the ordinary [`decode_stream`].
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

    /// Number of timestamps appended so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no timestamp has been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
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

/// Decodes a stream produced by any `encode_stream*` variant, dispatching
/// on the tag byte. Total: malformed input returns
/// [`TimestampError::Corrupt`] / [`TimestampError::Truncated`], never
/// panics, and preallocation is bounded by the remaining input.
pub fn decode_stream(r: &mut ByteReader<'_>) -> Result<Vec<i64>, TimestampError> {
    let tag = r.read_u8().map_err(|_| TimestampError::Truncated)?;
    match tag {
        STREAM_VARBIT => decode_stream_varbit(r),
        STREAM_BLOCKED => decode_stream_blocked(r),
        other => Err(TimestampError::Corrupt(format!("unknown stream tag {other}"))),
    }
}

fn decode_stream_blocked(r: &mut ByteReader<'_>) -> Result<Vec<i64>, TimestampError> {
    let n = r.read_u32_le().map_err(|_| TimestampError::Truncated)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let first = r.read_u64_le().map_err(|_| TimestampError::Truncated)? as i64;
    let ts = block::decode_dod_stream(r, first)?;
    if ts.len() != n {
        return Err(TimestampError::Corrupt(format!(
            "stream announces {n} timestamps but block payload holds {}",
            ts.len()
        )));
    }
    Ok(ts)
}

fn decode_stream_varbit(r: &mut ByteReader<'_>) -> Result<Vec<i64>, TimestampError> {
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
        let (s, i, rest) = decode_header(&b).unwrap();
        assert_eq!(s, 1_672_531_200);
        assert_eq!(i, 900);
        assert!(rest.is_empty());
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
        assert_eq!(decode_header(&[1, 2, 3]).unwrap_err(), TimestampError::Truncated);
    }

    fn sample_timestamps(n: usize) -> Vec<i64> {
        // Mostly-regular 15-minute cadence with jitter and occasional gaps:
        // the shape irregular CSV timelines actually have.
        (0..n as i64)
            .map(|i| 1_600_000_000 + i * 900 + (i % 5) * 3 + if i % 97 == 0 { 7200 } else { 0 })
            .collect()
    }

    #[test]
    fn stream_roundtrip_both_formats() {
        for n in [0usize, 1, 2, 63, 64, 128, 129, 1000] {
            let ts = sample_timestamps(n);
            for bytes in [encode_stream_varbit(&ts), encode_stream_blocked(&ts), encode_stream(&ts)]
            {
                let mut r = ByteReader::new(&bytes);
                assert_eq!(decode_stream(&mut r).unwrap(), ts, "n={n} tag={}", bytes[0]);
                assert!(r.is_empty(), "stream must be self-delimiting");
            }
        }
    }

    #[test]
    fn stream_is_self_delimiting_mid_buffer() {
        let ts = sample_timestamps(300);
        let mut buf = encode_stream(&ts);
        buf.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(decode_stream(&mut r).unwrap(), ts);
        assert_eq!(r.rest(), &[0xAA, 0xBB, 0xCC]);
    }

    #[test]
    fn stream_compresses_regular_series() {
        let ts = sample_timestamps(4096);
        let blocked = encode_stream_blocked(&ts);
        let varbit = encode_stream_varbit(&ts);
        // Near-regular cadence: both formats should land far below the
        // 8 bytes/value of raw i64 storage.
        assert!(blocked.len() < ts.len() * 2, "blocked: {} bytes", blocked.len());
        assert!(varbit.len() < ts.len() * 2, "varbit: {} bytes", varbit.len());
    }

    #[test]
    fn stream_extreme_values_survive() {
        let ts = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MAX / 2, i64::MIN / 2];
        for bytes in [encode_stream_varbit(&ts), encode_stream_blocked(&ts)] {
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_stream(&mut r).unwrap(), ts);
        }
    }

    #[test]
    fn stream_rejects_malformed() {
        let ts = sample_timestamps(200);
        for bytes in [encode_stream_varbit(&ts), encode_stream_blocked(&ts)] {
            // Any truncation point must error, never panic.
            for cut in [0, 1, 4, 8, 13, bytes.len() - 1] {
                let mut r = ByteReader::new(&bytes[..cut]);
                assert!(decode_stream(&mut r).is_err(), "cut={cut}");
            }
        }
        // Unknown tag.
        let mut bad = encode_stream(&ts);
        bad[0] = 9;
        assert!(matches!(
            decode_stream(&mut ByteReader::new(&bad)),
            Err(TimestampError::Corrupt(_))
        ));
        // Count / payload mismatch on the blocked format.
        let mut bad = encode_stream_blocked(&ts);
        bad[1..5].copy_from_slice(&300u32.wrapping_add(5).to_le_bytes());
        assert!(decode_stream(&mut ByteReader::new(&bad)).is_err());
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
            assert_eq!(a.len(), n);
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
