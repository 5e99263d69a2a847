//! Facebook Gorilla floating-point compression (Pelkonen et al., VLDB 2015),
//! the paper's lossless baseline (§3.3).
//!
//! Each value is XORed with its predecessor; a zero XOR costs one bit, and
//! nonzero XORs reuse or re-emit a (leading-zeros, length) window for the
//! meaningful bits. Unlike the original two-hour blocks, the paper
//! compresses "the whole time series as a single segment" because some
//! datasets would have only 8 points per block — this implementation does
//! the same. EXPERIMENTS.md records the size 8-point blocks would have on
//! ETTm1.

use tsdata::series::RegularTimeSeries;

use crate::bitstream::{BitReader, BitWriter};
use crate::codec::{CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::reader::ByteReader;
use crate::timestamps;

/// The Gorilla codec. Implements [`PeblcCompressor`] with the error bound
/// ignored (it is lossless), so it can run through the same evaluation grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gorilla;

/// Decompresses `n` values from Gorilla bits.
pub fn decompress_values(r: &mut BitReader<'_>, n: usize) -> Result<Vec<f64>, CodecError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    // An honest stream spends 64 bits on the first value and at least one
    // bit on each later one; reject a tampered count before allocating for
    // values the stream cannot possibly hold.
    if n > r.remaining().saturating_sub(63) {
        return Err(CodecError::Corrupt(format!(
            "gorilla count {n} exceeds the {}-bit stream",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    let err = |_| CodecError::Corrupt("gorilla stream truncated".into());
    let mut prev = r.read_bits(64).map_err(err)?;
    out.push(f64::from_bits(prev));
    let mut leading: u32 = 0;
    let mut trailing: u32 = 0;
    let mut have_window = false;
    for _ in 1..n {
        let bits = if !r.read_bit().map_err(err)? {
            prev
        } else if !r.read_bit().map_err(err)? {
            if !have_window {
                return Err(CodecError::Corrupt("gorilla window reuse before define".into()));
            }
            let len = 64 - leading - trailing;
            let meaningful = r.read_bits(len as u8).map_err(err)?;
            prev ^ (meaningful << trailing)
        } else {
            leading = r.read_bits(5).map_err(err)? as u32;
            let len = r.read_bits(6).map_err(err)? as u32 + 1;
            if leading + len > 64 {
                return Err(CodecError::Corrupt("gorilla window exceeds 64 bits".into()));
            }
            trailing = 64 - leading - len;
            have_window = true;
            let meaningful = r.read_bits(len as u8).map_err(err)?;
            prev ^ (meaningful << trailing)
        };
        prev = bits;
        out.push(f64::from_bits(bits));
    }
    Ok(out)
}

/// The one Gorilla value encoder: a stateful point-at-a-time XOR encoder.
/// [`Gorilla::compress`] folds a whole series through it and the store
/// appends chunk points to it, so both write the bit stream
/// [`decompress_values`] reads.
#[derive(Debug, Clone)]
pub struct ValueAppender {
    w: BitWriter,
    prev: u64,
    prev_leading: u32,
    prev_trailing: u32,
    count: usize,
}

impl Default for ValueAppender {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueAppender {
    /// Creates an empty appender.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty appender presized for `n` values. Sensor-like data
    /// averages well under 40 bits/value; sizing for the first value's 64
    /// bits plus that keeps growth to one realloc in the worst case
    /// instead of byte-at-a-time doubling.
    fn with_capacity(n: usize) -> Self {
        ValueAppender {
            w: BitWriter::with_capacity(64 + n * 40),
            prev: 0,
            prev_leading: u32::MAX,
            prev_trailing: 0,
            count: 0,
        }
    }

    /// Appends one value. The first costs 64 raw bits; each later value
    /// costs one bit when it repeats its predecessor, else a control bit
    /// plus the XOR's meaningful bits, reusing the previous
    /// (leading-zeros, length) window when it fits.
    #[inline]
    pub fn push(&mut self, v: f64) {
        let bits = v.to_bits();
        if self.count == 0 {
            self.w.write_bits(bits, 64);
            self.prev = bits;
            self.count = 1;
            return;
        }
        let xor = bits ^ self.prev;
        if xor == 0 {
            self.w.write_bit(false);
        } else {
            self.w.write_bit(true);
            let leading = xor.leading_zeros().min(31);
            let trailing = xor.trailing_zeros();
            // `prev_leading == u32::MAX` marks "no window yet", forcing
            // the first nonzero XOR to emit one.
            if self.prev_leading != u32::MAX
                && leading >= self.prev_leading
                && trailing >= self.prev_trailing
            {
                self.w.write_bit(false);
                let len = 64 - self.prev_leading - self.prev_trailing;
                self.w.write_bits(xor >> self.prev_trailing, len as u8);
            } else {
                self.w.write_bit(true);
                let len = 64 - leading - trailing;
                self.w.write_bits(leading as u64, 5);
                // len is in 1..=64; store len - 1 in 6 bits.
                self.w.write_bits((len - 1) as u64, 6);
                self.w.write_bits(xor >> trailing, len as u8);
                self.prev_leading = leading;
                self.prev_trailing = trailing;
            }
        }
        self.prev = bits;
        self.count += 1;
    }

    /// Consumes the appender, returning the padded byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.w.into_bytes()
    }
}

impl PeblcCompressor for Gorilla {
    fn name(&self) -> &'static str {
        "GORILLA"
    }

    /// Lossless: `_epsilon` is accepted for interface uniformity and
    /// ignored.
    fn compress(
        &self,
        series: &RegularTimeSeries,
        _epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        let mut inner = timestamps::try_encode_header(series.start(), series.interval())?;
        inner.extend_from_slice(&(series.len() as u32).to_le_bytes());
        let mut values = ValueAppender::with_capacity(series.len());
        for &v in series.values() {
            values.push(v);
        }
        inner.extend_from_slice(&values.into_bytes());
        Ok(CompressedSeries {
            method: self.name(),
            bytes: deflate::compress(&inner),
            num_segments: 1,
        })
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut hdr = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut hdr)?;
        let n = hdr.read_u32_le()? as usize;
        if n == 0 {
            return Err(CodecError::Corrupt("empty gorilla series".into()));
        }
        let mut r = BitReader::new(hdr.rest());
        let values = decompress_values(&mut r, n)?;
        Ok(RegularTimeSeries::new(start, interval, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 60, values).unwrap()
    }

    fn roundtrip(values: Vec<f64>) {
        let (d, _) = Gorilla.transform(&series(values.clone()), 0.0).unwrap();
        let got: Vec<u64> = d.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "lossless bitwise roundtrip");
    }

    #[test]
    fn exact_roundtrip_smooth() {
        roundtrip((0..2000).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect());
    }

    #[test]
    fn exact_roundtrip_constants_and_specials() {
        roundtrip(vec![5.0; 100]);
        roundtrip(vec![0.0, -0.0, 1.0, -1.0, f64::MAX, f64::MIN_POSITIVE, 1e-300]);
    }

    #[test]
    fn single_value() {
        roundtrip(vec![std::f64::consts::PI]);
    }

    fn append(values: &[f64]) -> ValueAppender {
        let mut a = ValueAppender::new();
        for &v in values {
            a.push(v);
        }
        a
    }

    #[test]
    fn repeated_values_cost_one_bit() {
        // 64 bits for the first + 1000 zero-XOR bits
        assert_eq!(append(&[7.5; 1001]).w.len_bits(), 64 + 1000);
    }

    #[test]
    fn similar_values_compress() {
        // Values differing only in low mantissa bits: window reuse kicks in.
        let values: Vec<f64> = (0..10_000).map(|i| 100.0 + (i % 16) as f64 * 1e-12).collect();
        let bits_per_value = append(&values).w.len_bits() as f64 / values.len() as f64;
        assert!(bits_per_value < 40.0, "bits/value {bits_per_value}");
    }

    #[test]
    fn cr_in_paper_ballpark_on_sensorlike_data() {
        // Paper §4.2: GORILLA CR between 1.49x and 3.09x on the datasets
        // (vs raw bytes — Gorilla is a storage encoding). Check on the
        // actual ETTm1 recreation the evaluation uses.
        let s = tsdata::datasets::generate_univariate(
            tsdata::datasets::DatasetKind::ETTm1,
            tsdata::datasets::GenOptions::with_len(8_000),
        );
        let raw = crate::codec::raw_bytes(&s).len();
        let c = Gorilla.compress(&s, 0.0).unwrap();
        let cr = raw as f64 / c.size_bytes() as f64;
        assert!(cr > 1.2 && cr < 5.0, "gorilla CR {cr}");
    }

    #[test]
    fn decompression_is_exact_bitwise() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * -3.7).collect();
        let (d, _) = Gorilla.transform(&series(values.clone()), 0.0).unwrap();
        for (a, b) in values.iter().zip(d.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncated_stream_detected() {
        let c = Gorilla.compress(&series(vec![1.0, 2.0, 3.0]), 0.0).unwrap();
        let inner = deflate::decompress(&c.bytes).unwrap();
        let cut = &inner[..inner.len() - 1];
        let frame =
            CompressedSeries { method: "GORILLA", bytes: deflate::compress(cut), num_segments: 1 };
        assert!(Gorilla.decompress(&frame).is_err());
    }

    #[test]
    fn appender_bits_are_the_frame_payload() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![std::f64::consts::PI],
            vec![7.5; 1001],
            (0..2000).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect(),
            (0..500).map(|i| (i as f64).sqrt() * -3.7).collect(),
            vec![0.0, -0.0, 1.0, -1.0, f64::MAX, f64::MIN_POSITIVE, 1e-300],
            vec![f64::from_bits(0x8000_0000_0000_0001), f64::from_bits(0x7FFF_FFFF_FFFF_FFFE)],
        ];
        assert!(append(&[]).into_bytes().is_empty());
        for values in cases.into_iter().skip(1) {
            // The store's appended chunk payload is the batch frame's body
            // after the header and count.
            let a = append(&values);
            assert_eq!(a.count, values.len());
            let frame = Gorilla.compress(&series(values.clone()), 0.0).unwrap();
            let inner = deflate::decompress(&frame.bytes).unwrap();
            assert_eq!(a.into_bytes(), inner[timestamps::HEADER_LEN + 4..], "n={}", values.len());
        }
    }

    #[test]
    fn appender_stream_decodes() {
        let values: Vec<f64> = (0..1500).map(|i| 3.0 + (i % 9) as f64 * 0.25).collect();
        let bytes = append(&values).into_bytes();
        let mut r = BitReader::new(&bytes);
        let got = decompress_values(&mut r, values.len()).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_64bit_window() {
        // Adjacent values whose XOR has no leading/trailing zeros exercise
        // the len = 64 encoding path (stored as 63 in 6 bits).
        roundtrip(vec![
            f64::from_bits(0x8000_0000_0000_0001),
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFE),
        ]);
    }
}
