//! Length-checked byte cursor shared by every decode path in the
//! workspace.
//!
//! All decoders in this crate — and the binary formats built on top of it
//! (`evalcore::artifact`, `forecast` state snapshots) — consume untrusted
//! bytes: compressed frames and model artifacts read back from disk, network
//! payloads in a production deployment, or deliberately mutated buffers in
//! the fuzz harness (`tests/fuzz_decode.rs`). [`ByteReader`] makes those
//! paths *total*: every read is bounds-checked up front and returns
//! [`ReadError`] instead of panicking, and `ByteReader::bounded_capacity`
//! clamps preallocation driven by decoded count fields so a corrupt 4-byte
//! count can never request more memory than the remaining input could
//! honestly describe.
//!
//! ```
//! use compression::reader::ByteReader;
//!
//! let buf = [7u8, 0, 0, 0, 42];
//! let mut r = ByteReader::new(&buf);
//! assert_eq!(r.read_u32_le().unwrap(), 7);
//! assert_eq!(r.read_u8().unwrap(), 42);
//! assert!(r.read_u16_le().is_err()); // exhausted: an error, not a panic
//! ```

/// Error from reading past the end of a [`ByteReader`]'s buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    /// Bytes the failed read needed.
    pub needed: usize,
    /// Bytes that were actually left.
    pub remaining: usize,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input truncated: needed {} bytes, {} remaining", self.needed, self.remaining)
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for crate::codec::CodecError {
    fn from(e: ReadError) -> Self {
        crate::codec::CodecError::Corrupt(e.to_string())
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
///
/// Every `read_*` method either returns the decoded value and advances the
/// cursor, or returns [`ReadError`] and leaves the cursor where it was.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unread tail of the buffer (does not advance the cursor).
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Takes the next `n` bytes as a slice.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.remaining() < n {
            return Err(ReadError { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Skips `n` bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), ReadError> {
        self.read_bytes(n).map(|_| ())
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16_le(&mut self) -> Result<u16, ReadError> {
        let b = self.read_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32_le(&mut self) -> Result<u32, ReadError> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64_le(&mut self) -> Result<u64, ReadError> {
        let b = self.read_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i32`.
    pub(crate) fn read_i32_le(&mut self) -> Result<i32, ReadError> {
        Ok(self.read_u32_le()? as i32)
    }

    /// Reads a little-endian IEEE-754 `f32`.
    pub(crate) fn read_f32_le(&mut self) -> Result<f32, ReadError> {
        Ok(f32::from_bits(self.read_u32_le()?))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub(crate) fn read_f64_le(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_bits(self.read_u64_le()?))
    }

    /// A safe `Vec` capacity for `count` records of at least
    /// `min_record_bytes` each: the decoded count, clamped by how many such
    /// records the *remaining* input could actually hold. Honest streams
    /// get their exact capacity; a tampered count field degrades to the
    /// input-proportional bound instead of a multi-gigabyte allocation.
    pub(crate) fn bounded_capacity(&self, count: usize, min_record_bytes: usize) -> usize {
        count.min(self.remaining() / min_record_bytes.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_typed_reads() {
        let mut buf = Vec::new();
        buf.push(0xABu8);
        buf.extend_from_slice(&0x1234u16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(-7i32).to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16_le().unwrap(), 0x1234);
        assert_eq!(r.read_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64_le().unwrap(), u64::MAX);
        assert_eq!(r.read_i32_le().unwrap(), -7);
        assert_eq!(r.read_f32_le().unwrap(), 1.5);
        assert_eq!(r.read_f64_le().unwrap(), -2.25);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_read_errors_and_does_not_advance() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u16_le().unwrap(), 0x0201);
        let err = r.read_u32_le().unwrap_err();
        assert_eq!(err, ReadError { needed: 4, remaining: 1 });
        // Cursor unchanged: the remaining byte is still readable.
        assert_eq!(r.read_u8().unwrap(), 3);
        assert_eq!(r.read_u8().unwrap_err(), ReadError { needed: 1, remaining: 0 });
    }

    #[test]
    fn rest_and_skip() {
        let buf = [9u8, 8, 7, 6];
        let mut r = ByteReader::new(&buf);
        r.skip(1).unwrap();
        assert_eq!(r.rest(), &[8, 7, 6]);
        assert_eq!(r.position(), 1);
        assert!(r.skip(4).is_err());
        assert_eq!(r.remaining(), 3, "failed skip must not consume");
    }

    #[test]
    fn bounded_capacity_clamps_hostile_counts() {
        let buf = [0u8; 60];
        let r = ByteReader::new(&buf);
        // Honest: 10 six-byte records fit exactly.
        assert_eq!(r.bounded_capacity(10, 6), 10);
        // Hostile: u32::MAX records cannot fit in 60 bytes.
        assert_eq!(r.bounded_capacity(u32::MAX as usize, 6), 10);
        // Degenerate record size is treated as 1 byte.
        assert_eq!(r.bounded_capacity(1000, 0), 60);
    }

    #[test]
    fn read_error_converts_to_codec_corrupt() {
        let mut r = ByteReader::new(&[]);
        let e: crate::codec::CodecError = r.read_u8().unwrap_err().into();
        assert!(matches!(e, crate::codec::CodecError::Corrupt(_)));
    }
}
