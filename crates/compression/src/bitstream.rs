//! Bit-level I/O used by every compressor in this crate.
//!
//! Bits are written MSB-first within each byte, which matches the layout of
//! Gorilla's reference description and keeps the Huffman decoder a simple
//! left-to-right walk.
//!
//! The multi-bit paths never loop per bit: [`BitWriter::write_bits`] moves
//! whole bytes, and [`BitReader::read_bits`] loads one big-endian word
//! wherever eight bytes remain. The wire format is unchanged (DESIGN.md §11
//! proves equivalence with a per-bit reference in `tests/block_props.rs`).

use std::fmt;

/// Error returned when a reader runs past the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bit reader exhausted")
    }
}

impl std::error::Error for OutOfBits {}

/// An append-only bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0..8). 0 means byte-aligned.
    bit_pos: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with room for `bits` bits before reallocating.
    /// Encode paths size this from their value count so the output vector
    /// is grown once, not byte by byte.
    pub fn with_capacity(bits: usize) -> Self {
        BitWriter { bytes: Vec::with_capacity(bits.div_ceil(8)), bit_pos: 0 }
    }

    /// Writes a single bit.
    pub(crate) fn write_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("just pushed");
            *last |= 0x80 >> self.bit_pos;
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Writes the low `n` bits of `value`, most significant first.
    ///
    /// Byte-at-a-time: the current partial byte is topped up, whole bytes
    /// are pushed directly, and at most one trailing partial byte remains —
    /// never a per-bit loop.
    pub fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let val = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        let mut rem = n as u32;
        // Top up the partially filled final byte.
        if self.bit_pos != 0 {
            let free = 8 - self.bit_pos as u32;
            let take = free.min(rem);
            let chunk = ((val >> (rem - take)) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.last_mut().expect("partial byte exists");
            *last |= chunk << (free - take);
            self.bit_pos = ((self.bit_pos as u32 + take) % 8) as u8;
            rem -= take;
            if rem == 0 {
                return;
            }
        }
        // Whole bytes, MSB-first.
        while rem >= 8 {
            rem -= 8;
            self.bytes.push((val >> rem) as u8);
        }
        // Trailing partial byte.
        if rem > 0 {
            self.bytes.push(((val << (8 - rem)) & 0xFF) as u8);
            self.bit_pos = rem as u8;
        }
    }

    /// Total bits written.
    #[cfg(test)]
    pub(crate) fn len_bits(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Finishes, padding the final byte with zero bits.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A sequential bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // absolute bit position
}

impl<'a> BitReader<'a> {
    /// Creates a reader at bit position zero.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    pub(crate) fn read_bit(&mut self) -> Result<bool, OutOfBits> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(OutOfBits);
        }
        let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits into the low bits of a `u64`, MSB first.
    ///
    /// Wherever eight bytes remain from the current byte, this is one
    /// big-endian word load and a shift (plus the ninth byte when the read
    /// straddles it). The last bytes of the stream take a byte-at-a-time
    /// path: one partial leading byte, whole bytes, one partial trailing
    /// byte — never a per-bit loop.
    pub fn read_bits(&mut self, n: u8) -> Result<u64, OutOfBits> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        let n = n as usize;
        let end = self.pos + n;
        if end > self.bytes.len() * 8 {
            return Err(OutOfBits);
        }
        let byte = self.pos / 8;
        let off = self.pos % 8;
        let out = match self.bytes.get(byte..byte + 8) {
            Some(word) => {
                let w = u64::from_be_bytes(word.try_into().expect("8-byte slice")) << off;
                let hi = w >> (64 - n);
                // The read ends in byte `byte + 8`, which `end` proves exists.
                let spill = off + n;
                if spill > 64 {
                    hi | (self.bytes[byte + 8] >> (72 - spill)) as u64
                } else {
                    hi
                }
            }
            None => self.read_tail(byte, off as u32, n as u32),
        };
        self.pos = end;
        Ok(out)
    }

    /// [`Self::read_bits`] within the stream's last eight bytes, whose
    /// bounds the caller checked.
    fn read_tail(&self, mut byte: usize, off: u32, n: u32) -> u64 {
        // First (possibly partial) byte.
        let avail = 8 - off;
        let take = avail.min(n);
        let cur = self.bytes[byte] as u32;
        let mut out = ((cur >> (avail - take)) & ((1u32 << take) - 1)) as u64;
        let mut got = take;
        byte += 1;
        // Whole bytes.
        while got + 8 <= n {
            out = (out << 8) | self.bytes[byte] as u64;
            byte += 1;
            got += 8;
        }
        // Trailing partial byte.
        if got < n {
            let tail = n - got;
            out = (out << tail) | (self.bytes[byte] >> (8 - tail)) as u64;
        }
        out
    }

    /// Peeks at the next `n` bits (`1..=16`) without advancing, or `None`
    /// when fewer than `n` bits remain. This is the lookahead the
    /// table-driven Huffman decoder uses; near the end of the stream it
    /// falls back to the per-bit walk, so short reads never need
    /// zero-padding semantics.
    pub(crate) fn peek(&self, n: u8) -> Option<u16> {
        debug_assert!((1..=16).contains(&n));
        if self.remaining() < n as usize {
            return None;
        }
        let byte = self.pos / 8;
        // `off + n <= 23`, so the window lies in the next three bytes; in
        // the last ones, bytes past the end read as zero outside it.
        let w = match self.bytes.get(byte..byte + 4) {
            Some(b) => u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            None => self.bytes[byte..]
                .iter()
                .enumerate()
                .fold(0, |w, (i, &b)| w | (b as u32) << (24 - 8 * i)),
        };
        Some(((w << (self.pos % 8)) >> (32 - n as u32)) as u16)
    }

    /// Advances past `n` bits that were already inspected via [`peek`].
    ///
    /// [`peek`]: BitReader::peek
    pub(crate) fn skip_bits(&mut self, n: u8) -> Result<(), OutOfBits> {
        if self.remaining() < n as usize {
            return Err(OutOfBits);
        }
        self.pos += n as usize;
        Ok(())
    }

    /// A reader over `bytes` that starts at bit `pos` (at most the
    /// stream's length).
    pub(crate) fn at(bytes: &'a [u8], pos: usize) -> Self {
        debug_assert!(pos <= bytes.len() * 8);
        BitReader { bytes, pos }
    }

    /// Bits consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Remaining readable bits.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multibit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0b1010_0000); // padding zeros
        assert_eq!(r.read_bit(), Err(OutOfBits));
    }

    #[test]
    fn failed_read_does_not_advance() {
        let bytes = [0xA5u8];
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap();
        assert_eq!(r.read_bits(8), Err(OutOfBits));
        assert_eq!(r.position(), 3, "failed multi-bit read must not consume");
        assert_eq!(r.read_bits(5).unwrap(), 0b00101);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true); // should land in bit 7 of byte 0
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0b1000_0000);
    }

    #[test]
    fn write_bits_matches_per_bit_reference() {
        // Differential check against the definitional per-bit encoding at
        // every width and several alignments.
        for n in 0u8..=64 {
            for &phase in &[0u8, 1, 3, 7] {
                let value = 0xA5A5_5A5A_DEAD_BEEFu64;
                let mut fast = BitWriter::new();
                let mut slow = BitWriter::new();
                fast.write_bits(0x15, phase.min(5));
                slow.write_bits(0x15, phase.min(5));
                fast.write_bits(value, n);
                for i in (0..n).rev() {
                    slow.write_bit((value >> i) & 1 == 1);
                }
                assert_eq!(fast.len_bits(), slow.len_bits(), "n={n} phase={phase}");
                assert_eq!(fast.into_bytes(), slow.into_bytes(), "n={n} phase={phase}");
            }
        }
    }

    #[test]
    fn read_bits_matches_per_bit_reference() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(0x9D) ^ 0x3C).collect();
        for n in 0u8..=64 {
            for &phase in &[0u8, 1, 4, 7] {
                let mut fast = BitReader::new(&bytes);
                let mut slow = BitReader::new(&bytes);
                fast.read_bits(phase).unwrap();
                slow.read_bits(phase).unwrap();
                let got = fast.read_bits(n).unwrap();
                let mut want = 0u64;
                for _ in 0..n {
                    want = (want << 1) | slow.read_bit().unwrap() as u64;
                }
                assert_eq!(got, want, "n={n} phase={phase}");
                assert_eq!(fast.position(), slow.position());
            }
        }
    }

    /// The per-bit definition of the next `n` bits, or `None` past the end.
    fn bits_one_at_a_time(r: &BitReader<'_>, n: u8) -> Option<u64> {
        let mut r = r.clone();
        (0..n).try_fold(0u64, |acc, _| r.read_bit().ok().map(|b| (acc << 1) | b as u64))
    }

    #[test]
    fn peek_and_skip_at_every_offset_and_the_end() {
        let bytes: Vec<u8> = (0..5u8).map(|i| i.wrapping_mul(0x9D) ^ 0x3C).collect();
        for n in 1u8..=16 {
            for pos in 0..=bytes.len() * 8 {
                let mut r = BitReader::new(&bytes);
                r.pos = pos;
                let want = bits_one_at_a_time(&r, n).map(|v| v as u16);
                assert_eq!(r.peek(n), want, "n={n} pos={pos}");
                assert_eq!(want.is_none(), r.remaining() < n as usize);
                assert_eq!(r.position(), pos, "peek must not advance");
            }
        }
        let mut r = BitReader::new(&bytes);
        r.skip_bits(37).unwrap();
        assert!(r.skip_bits(4).is_err(), "only 3 bits left");
        assert_eq!(r.position(), 37, "failed skip must not advance");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn read_bits_matches_per_bit_reference_near_the_end(
            bytes in proptest::collection::vec(any::<u8>(), 16..40),
        ) {
            // Every start bit in the last 16 bytes and every width: the word
            // path, the byte-at-a-time tail and the boundary between them.
            for start in (bytes.len() - 16) * 8..bytes.len() * 8 {
                for n in 1u8..=64 {
                    let mut r = BitReader::new(&bytes);
                    r.pos = start;
                    let want = bits_one_at_a_time(&r, n);
                    prop_assert_eq!(r.read_bits(n).ok(), want, "start={} n={}", start, n);
                    let moved = if want.is_some() { n as usize } else { 0 };
                    prop_assert_eq!(r.position(), start + moved, "start={} n={}", start, n);
                }
            }
        }
    }

    #[test]
    fn with_capacity_starts_empty() {
        let mut w = BitWriter::with_capacity(1000 * 64);
        assert!(w.len_bits() == 0);
        w.write_bits(0xFFFF, 16);
        assert_eq!(w.into_bytes(), vec![0xFF, 0xFF]);
    }

    #[test]
    fn position_and_remaining() {
        let bytes = [0xFF, 0x00];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
    }
}
