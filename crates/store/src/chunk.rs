//! Sealed chunks and their versioned wire format.
//!
//! A sealed chunk is an immutable, self-delimiting frame:
//!
//! ```text
//! magic "TSCK" | version u8 | codec u8 | flags u16 (reserved, 0)
//! count u32    | num_segments u32
//! start_ts i64 | end_ts i64 | interval i64
//! eps_bits u64 | payload_len u32 | payload_crc32 u32
//! payload bytes...
//! ```
//!
//! All integers are little-endian. `end_ts` is redundant with
//! `start_ts + (count - 1) * interval` and is verified on decode, as is the
//! CRC32 (shared with the artifact format via [`compression::crc`]).
//! Decoding goes through [`compression::ByteReader`] and is *total*:
//! malformed bytes produce [`StoreError`], never a panic, and no
//! allocation is sized from unvalidated header fields.

use compression::bitstream::BitReader;
use compression::codec::CompressedSeries;
use compression::crc::crc32;
use compression::reader::ByteReader;
use compression::{gorilla, timestamps, Method};
use tsdata::series::RegularTimeSeries;

use crate::StoreError;

/// Chunk frame magic bytes.
const CHUNK_MAGIC: [u8; 4] = *b"TSCK";
/// Current chunk format version.
const CHUNK_VERSION: u8 = 1;
/// Fixed header size in bytes (before the payload).
pub const CHUNK_HEADER_LEN: usize = 56;

/// The codec a chunk's payload is encoded with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkCodec {
    /// Lossless delta-of-delta timestamps + XOR values (the ingest
    /// staging codec).
    Gorilla,
    /// PMC-Mean constant segments (error-bounded).
    Pmc,
    /// Swing filter line segments (error-bounded).
    Swing,
    /// SZ block quantization (error-bounded).
    Sz,
}

impl ChunkCodec {
    /// Wire tag.
    fn tag(self) -> u8 {
        match self {
            ChunkCodec::Gorilla => 0,
            ChunkCodec::Pmc => 1,
            ChunkCodec::Swing => 2,
            ChunkCodec::Sz => 3,
        }
    }

    /// Inverse of `ChunkCodec::tag`.
    pub fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            0 => Ok(ChunkCodec::Gorilla),
            1 => Ok(ChunkCodec::Pmc),
            2 => Ok(ChunkCodec::Swing),
            3 => Ok(ChunkCodec::Sz),
            other => Err(StoreError::Corrupt(format!("unknown chunk codec tag {other}"))),
        }
    }

    /// Telemetry / display label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ChunkCodec::Gorilla => "GORILLA",
            ChunkCodec::Pmc => "PMC",
            ChunkCodec::Swing => "SWING",
            ChunkCodec::Sz => "SZ",
        }
    }

    /// The error-bounded [`Method`] behind a lossy chunk codec, if any.
    fn method(self) -> Option<Method> {
        match self {
            ChunkCodec::Gorilla => None,
            ChunkCodec::Pmc => Some(Method::Pmc),
            ChunkCodec::Swing => Some(Method::Swing),
            ChunkCodec::Sz => Some(Method::Sz),
        }
    }
}

/// An immutable, decoded-on-demand chunk of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    codec: ChunkCodec,
    count: u32,
    num_segments: u32,
    start_ts: i64,
    interval: i64,
    eps_bits: u64,
    payload: Vec<u8>,
}

impl SealedChunk {
    /// Assembles a chunk from parts the append path produced. `count` must
    /// be nonzero and describe exactly the points in `payload`.
    pub(crate) fn from_parts(
        codec: ChunkCodec,
        count: usize,
        num_segments: usize,
        start_ts: i64,
        interval: i64,
        eps: f64,
        payload: Vec<u8>,
    ) -> SealedChunk {
        debug_assert!(count > 0, "sealed chunks are never empty");
        SealedChunk {
            codec,
            count: count as u32,
            num_segments: num_segments as u32,
            start_ts,
            interval,
            eps_bits: eps.to_bits(),
            payload,
        }
    }

    /// The payload codec.
    pub(crate) fn codec(&self) -> ChunkCodec {
        self.codec
    }

    /// Number of points in the chunk.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Sealed chunks are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Segment count of the payload (1 for Gorilla).
    pub fn num_segments(&self) -> usize {
        self.num_segments as usize
    }

    /// Timestamp of the first point.
    pub fn start_ts(&self) -> i64 {
        self.start_ts
    }

    /// Timestamp of the last point.
    fn end_ts(&self) -> i64 {
        self.start_ts + (self.count as i64 - 1) * self.interval
    }

    /// Full wire size: header plus payload.
    pub fn wire_len(&self) -> usize {
        CHUNK_HEADER_LEN + self.payload.len()
    }

    /// Serializes the chunk into its self-delimiting wire frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CHUNK_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&CHUNK_MAGIC);
        out.push(CHUNK_VERSION);
        out.push(self.codec.tag());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.num_segments.to_le_bytes());
        out.extend_from_slice(&self.start_ts.to_le_bytes());
        out.extend_from_slice(&self.end_ts().to_le_bytes());
        out.extend_from_slice(&self.interval.to_le_bytes());
        out.extend_from_slice(&self.eps_bits.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one chunk frame, leaving the reader at the first byte past
    /// it. Total: every malformed input is an error.
    pub fn from_bytes(r: &mut ByteReader<'_>) -> Result<SealedChunk, StoreError> {
        let truncated = |_| StoreError::Corrupt("chunk header truncated".into());
        let magic = r.read_bytes(4).map_err(truncated)?;
        if magic != CHUNK_MAGIC {
            return Err(StoreError::Corrupt(format!("bad chunk magic {magic:02x?}")));
        }
        let version = r.read_u8().map_err(truncated)?;
        if version != CHUNK_VERSION {
            return Err(StoreError::Corrupt(format!(
                "chunk format version {version} (this build reads {CHUNK_VERSION})"
            )));
        }
        let codec = ChunkCodec::from_tag(r.read_u8().map_err(truncated)?)?;
        let flags = r.read_u16_le().map_err(truncated)?;
        if flags != 0 {
            return Err(StoreError::Corrupt(format!("reserved chunk flags {flags:#06x} set")));
        }
        let count = r.read_u32_le().map_err(truncated)?;
        if count == 0 {
            return Err(StoreError::Corrupt("empty chunk".into()));
        }
        let num_segments = r.read_u32_le().map_err(truncated)?;
        let start_ts = r.read_u64_le().map_err(truncated)? as i64;
        let end_ts = r.read_u64_le().map_err(truncated)? as i64;
        let interval = r.read_u64_le().map_err(truncated)? as i64;
        if interval <= 0 {
            return Err(StoreError::Corrupt(format!("chunk interval {interval} must be > 0")));
        }
        // Checked arithmetic: a hostile (count, interval) pair must not
        // overflow into a "consistent" end timestamp.
        let span = (count as i64 - 1)
            .checked_mul(interval)
            .and_then(|s| start_ts.checked_add(s))
            .ok_or_else(|| StoreError::Corrupt("chunk time range overflows i64".into()))?;
        if span != end_ts {
            return Err(StoreError::Corrupt(format!(
                "chunk time range mismatch: header says {start_ts}..={end_ts}, \
                 {count} points at interval {interval} end at {span}"
            )));
        }
        let eps_bits = r.read_u64_le().map_err(truncated)?;
        let payload_len = r.read_u32_le().map_err(truncated)? as usize;
        let stored_crc = r.read_u32_le().map_err(truncated)?;
        // `read_bytes` borrows from the input, so a hostile payload_len
        // cannot demand an allocation beyond the input's own size.
        let payload = r
            .read_bytes(payload_len)
            .map_err(|_| StoreError::Corrupt("chunk payload truncated".into()))?;
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(StoreError::Corrupt(format!(
                "chunk checksum mismatch: header {stored_crc:#010x}, payload {computed:#010x}"
            )));
        }
        Ok(SealedChunk {
            codec,
            count,
            num_segments,
            start_ts,
            interval,
            eps_bits,
            payload: payload.to_vec(),
        })
    }

    /// Decodes the payload into the chunk's series. Total for arbitrary
    /// payload bytes: the codec decoders are length-checked and the result
    /// is validated against the header.
    pub fn decode(&self) -> Result<RegularTimeSeries, StoreError> {
        let started = std::time::Instant::now();
        let series = match self.codec {
            ChunkCodec::Gorilla => {
                let mut r = ByteReader::new(&self.payload);
                let ts = timestamps::decode_stream(&mut r)
                    .map_err(|e| StoreError::Corrupt(format!("chunk timestamps: {e}")))?;
                if ts.len() != self.count as usize {
                    return Err(StoreError::Corrupt(format!(
                        "chunk announces {} points but holds {} timestamps",
                        self.count,
                        ts.len()
                    )));
                }
                if ts[0] != self.start_ts {
                    return Err(StoreError::Corrupt(format!(
                        "chunk timestamps start at {} but header says {}",
                        ts[0], self.start_ts
                    )));
                }
                if let Some(i) =
                    (1..ts.len()).find(|&i| ts[i].checked_sub(ts[i - 1]) != Some(self.interval))
                {
                    return Err(StoreError::Corrupt(format!(
                        "chunk timestamp gap at index {i} differs from interval {}",
                        self.interval
                    )));
                }
                let mut bits = BitReader::new(r.rest());
                let values = gorilla::decompress_values(&mut bits, self.count as usize)
                    .map_err(StoreError::Codec)?;
                RegularTimeSeries::new(self.start_ts, self.interval, values)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?
            }
            ChunkCodec::Pmc | ChunkCodec::Swing | ChunkCodec::Sz => {
                let method = self.codec.method().expect("lossy codecs map to a method");
                let compressor = method.compressor();
                let frame = CompressedSeries {
                    method: compressor.name(),
                    bytes: self.payload.clone(),
                    num_segments: self.num_segments as usize,
                };
                let series = compressor.decompress(&frame).map_err(StoreError::Codec)?;
                if series.len() != self.count as usize {
                    return Err(StoreError::Corrupt(format!(
                        "chunk announces {} points but payload decodes {}",
                        self.count,
                        series.len()
                    )));
                }
                if series.start() != self.start_ts || series.interval() != self.interval {
                    return Err(StoreError::Corrupt(
                        "chunk payload time axis disagrees with header".into(),
                    ));
                }
                series
            }
        };
        telemetry::observe(
            "store_read_seconds",
            &[("codec", self.codec.name())],
            telemetry::secs(started.elapsed()),
        );
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append::ActiveChunk;

    fn gorilla_chunk(n: usize) -> SealedChunk {
        let mut a = ActiveChunk::new(ChunkCodec::Gorilla, 0.0);
        for i in 0..n {
            a.push(1_000 + 60 * i as i64, 5.0 + (i % 7) as f64 * 0.5);
        }
        a.seal(60, 0.0).unwrap()
    }

    #[test]
    fn wire_roundtrip() {
        for codec_chunk in [gorilla_chunk(100), {
            let mut a = ActiveChunk::new(ChunkCodec::Pmc, 0.1);
            for i in 0..257 {
                a.push(60 * i as i64, 9.0 + (i % 3) as f64 * 0.1);
            }
            a.seal(60, 0.1).unwrap()
        }] {
            let bytes = codec_chunk.to_bytes();
            assert_eq!(bytes.len(), codec_chunk.wire_len());
            let mut r = ByteReader::new(&bytes);
            let back = SealedChunk::from_bytes(&mut r).unwrap();
            assert!(r.is_empty(), "frame is self-delimiting");
            assert_eq!(back, codec_chunk);
            assert_eq!(back.decode().unwrap(), codec_chunk.decode().unwrap());
        }
    }

    #[test]
    fn header_fields_describe_the_chunk() {
        let c = gorilla_chunk(50);
        assert_eq!(c.len(), 50);
        assert_eq!(c.start_ts(), 1_000);
        assert_eq!(c.end_ts(), 1_000 + 49 * 60);
        assert_eq!(c.interval, 60);
        assert_eq!(c.codec(), ChunkCodec::Gorilla);
        assert_eq!(f64::from_bits(c.eps_bits), 0.0);
        assert_eq!(c.num_segments(), 1);
    }

    #[test]
    fn corrupt_frames_rejected() {
        let bytes = gorilla_chunk(64).to_bytes();
        // Truncations at every prefix.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(SealedChunk::from_bytes(&mut r).is_err(), "cut={cut}");
        }
        // A flipped payload bit must fail the checksum.
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x40;
        assert!(matches!(
            SealedChunk::from_bytes(&mut ByteReader::new(&tampered)),
            Err(StoreError::Corrupt(msg)) if msg.contains("checksum")
        ));
        // Bad magic / version / tag / flags.
        for (offset, value, what) in
            [(0usize, 0x58u8, "magic"), (4, 9, "version"), (5, 7, "tag"), (6, 1, "flags")]
        {
            let mut bad = bytes.clone();
            bad[offset] = value;
            assert!(
                SealedChunk::from_bytes(&mut ByteReader::new(&bad)).is_err(),
                "tampered {what}"
            );
        }
        // Inconsistent time range.
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&123i64.to_le_bytes());
        assert!(SealedChunk::from_bytes(&mut ByteReader::new(&bad)).is_err());
    }
}
