//! PMC-Mean (Poor Man's Compression; Lazaridis & Mehrotra, ICDE 2003) with a
//! relative pointwise error bound.
//!
//! The algorithm grows an adaptive window, maintaining the running mean of
//! its points. A point `v_i` admits a representative `m` iff
//! `|m - v_i| <= eps * |v_i|`, i.e. `m` lies in
//! `[v_i - b_i, v_i + b_i]` with `b_i = eps * |v_i|`. The window therefore
//! stays open while the running mean lies inside the intersection of all
//! per-point intervals; when adding a point would empty the intersection or
//! push the mean outside it, the window *without the latest point* becomes a
//! segment (paper §3.2).
//!
//! A segment does not store the mean itself but the shortest decimal inside
//! the half of `[lo, hi]` centered on the mean (see
//! `codec::shortest_decimal_in`). That value still honors every point's
//! bound and stays close to PMC-Mean's reconstruction error, and its f32
//! bit pattern repeats far more often, which the final lossless pass
//! rewards: on 8,192 ETTm1 points at ε = 0.2 the deflated segment stream is
//! 2,918 B, against 4,748 B for the exact mean (measured sizes in
//! EXPERIMENTS.md).
//!
//! The frame is the shared timestamp header, a `u32` record count and one
//! `(length: u16, value: f32)` record per segment, little endian (a segment
//! longer than `u16::MAX` points takes several records), passed through the
//! DEFLATE layer (the gzip step of §3.2). Constant-value segments are
//! exactly what makes PMC's stream respond so well to that final lossless
//! pass (paper §4.2).

use tsdata::series::RegularTimeSeries;

use crate::codec::{
    check_epsilon, point_bound, shortest_decimal_in, CodecError, CompressedSeries, PeblcCompressor,
};
use crate::deflate;
use crate::reader::ByteReader;
use crate::timestamps;

/// The PMC-Mean compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pmc;

/// A decoded PMC segment (exposed for Figure 1 style inspection and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmcSegment {
    /// Number of points the segment covers.
    pub len: usize,
    /// The constant value representing every point.
    pub value: f64,
}

/// Online PMC-Mean: push points one at a time, receive each segment as
/// soon as the error bound closes it. This is the one PMC encoder:
/// [`Pmc::compress`], `compress_source` and the store's chunk appends all
/// fold over it. Memory stays O(1) in the
/// stream length.
#[derive(Debug, Clone)]
pub struct StreamingPmc {
    epsilon: f64,
    // Intersection of allowed intervals and running sum for the open
    // window (empty when `count == 0`).
    lo: f64,
    hi: f64,
    sum: f64,
    count: usize,
    mean: f64,
}

impl StreamingPmc {
    /// Creates an encoder with relative bound `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        StreamingPmc {
            epsilon,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            sum: 0.0,
            count: 0,
            mean: 0.0,
        }
    }

    /// Pushes one point; returns the segment it closed, if any.
    #[inline]
    pub fn push(&mut self, v: f64) -> Option<PmcSegment> {
        let b = point_bound(v, self.epsilon);
        let nlo = self.lo.max(v - b);
        let nhi = self.hi.min(v + b);
        let nsum = self.sum + v;
        let nmean = nsum / (self.count + 1) as f64;
        if nlo <= nhi && nmean >= nlo && nmean <= nhi {
            // The window absorbs the point.
            self.lo = nlo;
            self.hi = nhi;
            self.sum = nsum;
            self.count += 1;
            self.mean = nmean;
            return None;
        }
        // Close the window without the latest point, which opens the next
        // one on its own. A point no window admits (NaN) still gets its
        // own one-point window.
        let closed = self.segment();
        self.lo = v - b;
        self.hi = v + b;
        self.sum = v;
        self.count = 1;
        self.mean = v;
        closed
    }

    /// Flushes the open window, leaving the encoder empty: the next `push`
    /// starts a fresh segment. End of stream and the store's chunk seal
    /// both flush this way.
    pub fn drain(&mut self) -> Option<PmcSegment> {
        let closed = self.segment();
        *self = Self::new(self.epsilon);
        closed
    }

    /// The open window as a segment, if it holds any point.
    fn segment(&self) -> Option<PmcSegment> {
        (self.count > 0).then(|| PmcSegment {
            len: self.count,
            value: representative(self.lo, self.hi, self.mean),
        })
    }
}

/// Pushes every value through `enc`, then drains it.
fn fold(mut enc: StreamingPmc, values: impl IntoIterator<Item = f64>) -> Vec<PmcSegment> {
    let mut segments = Vec::new();
    for v in values {
        segments.extend(enc.push(v));
    }
    segments.extend(enc.drain());
    segments
}

/// The PMC frame of a value stream: the one compress path behind
/// [`Pmc::compress`] and `compress_source`.
pub(crate) fn compress_values(
    start: i64,
    interval: i64,
    values: impl IntoIterator<Item = f64>,
    epsilon: f64,
) -> Result<CompressedSeries, CodecError> {
    check_epsilon(epsilon)?;
    let segments = fold(StreamingPmc::new(epsilon), values);
    Ok(CompressedSeries {
        method: "PMC",
        bytes: encode_segments(start, interval, &segments)?,
        num_segments: segments.len(),
    })
}

/// The stored representative of a closed window whose mean lies in
/// `[lo, hi]`: the shortest decimal in the half of that interval centered
/// on the mean (see the module doc).
fn representative(lo: f64, hi: f64, mean: f64) -> f64 {
    let l = mean - 0.5 * (mean - lo).max(0.0);
    let h = mean + 0.5 * (hi - mean).max(0.0);
    shortest_decimal_in(l, h)
}

/// Serializes already-segmented PMC output into the deflated frame format
/// `Pmc::decompress` reads. Segments longer than the 16-bit length field
/// are split here, and only here, so the encoder never cuts at the cap;
/// the store seals its streamed segments through the same path.
pub fn encode_segments(
    start: i64,
    interval: i64,
    segments: &[PmcSegment],
) -> Result<Vec<u8>, CodecError> {
    let mut inner = timestamps::try_encode_header(start, interval)?;
    // Count after 16-bit splitting so the stream is self-describing.
    let stored: Vec<(u16, f64)> = segments
        .iter()
        .flat_map(|s| timestamps::split_segment_len(s.len).map(move |l| (l, s.value)))
        .collect();
    inner.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    for (len, value) in &stored {
        inner.extend_from_slice(&len.to_le_bytes());
        // Coefficients are single precision, as in ModelarDB (§3.2
        // "Implementations Used"); the rounding is covered by the
        // f32 allowance documented in `codec::find_bound_violation`.
        inner.extend_from_slice(&(*value as f32).to_le_bytes());
    }
    Ok(deflate::compress(&inner))
}

impl PeblcCompressor for Pmc {
    fn name(&self) -> &'static str {
        "PMC"
    }

    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        compress_values(series.start(), series.interval(), series.values().iter().copied(), epsilon)
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut r = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut r)?;
        let n_seg = r.read_u32_le()? as usize;
        // Each stored segment costs 6 bytes, so a tampered count cannot
        // reach the body of the loop past the honest record supply; the
        // explicit check turns the excess into a clean error.
        if n_seg > r.bounded_capacity(n_seg, 6) {
            return Err(CodecError::Corrupt(format!(
                "segment count {n_seg} exceeds the {} remaining bytes",
                r.remaining()
            )));
        }
        // Records are fixed-size, so one cheap pre-scan of the length
        // fields sizes the output exactly (clamped so hostile lengths
        // cannot demand a huge allocation up front).
        let rest = r.rest();
        let total: usize =
            (0..n_seg).map(|i| u16::from_le_bytes([rest[6 * i], rest[6 * i + 1]]) as usize).sum();
        let mut values = Vec::with_capacity(total.min(1 << 20));
        for _ in 0..n_seg {
            let len = r.read_u16_le()? as usize;
            let value = r.read_f32_le()? as f64;
            values.extend(std::iter::repeat_n(value, len));
        }
        Ok(RegularTimeSeries::new(start, interval, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::find_bound_violation;

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 60, values).unwrap()
    }

    fn segment_values(values: &[f64], epsilon: f64) -> Vec<PmcSegment> {
        fold(StreamingPmc::new(epsilon), values.iter().copied())
    }

    #[test]
    fn constant_series_is_one_segment() {
        let segs = segment_values(&[5.0; 100], 0.01);
        assert_eq!(segs, vec![PmcSegment { len: 100, value: 5.0 }]);
    }

    #[test]
    fn zero_epsilon_splits_on_change() {
        let segs = segment_values(&[1.0, 1.0, 2.0, 2.0, 2.0], 0.0);
        assert_eq!(
            segs,
            vec![PmcSegment { len: 2, value: 1.0 }, PmcSegment { len: 3, value: 2.0 }]
        );
    }

    #[test]
    fn mean_respects_all_points() {
        // values 10, 11 with eps 0.1: bounds [9,11] and [9.9,12.1];
        // the representative must lie in the intersection [9.9, 11].
        let segs = segment_values(&[10.0, 11.0], 0.1);
        assert_eq!(segs.len(), 1);
        assert!((9.9..=11.0).contains(&segs[0].value), "value {}", segs[0].value);
        // 10 then 13 with eps 0.1: intersection [11.7, 11.0] is empty -> split.
        let segs = segment_values(&[10.0, 13.0], 0.1);
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn representative_is_round_decimal() {
        // Mean 10.5, allowed interval [9.9, 11]: the snapped half-interval
        // [10.2, 10.75] admits the one-decimal value 10.5.
        let segs = segment_values(&[10.0, 11.0], 0.1);
        assert_eq!(segs[0].value, 10.5);
        // A wide interval snaps to an integer.
        let segs = segment_values(&[100.0, 104.0], 0.3);
        assert_eq!(segs[0].value.fract(), 0.0, "value {}", segs[0].value);
    }

    #[test]
    fn exact_zeros_preserved() {
        // Solar night-time: relative bound at v=0 is 0, so zeros must be
        // reconstructed exactly.
        let vals = vec![0.0, 0.0, 0.0, 4.0, 5.0, 0.0, 0.0];
        let (d, _) = Pmc.transform(&series(vals.clone()), 0.5).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert_eq!(d.values()[5], 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.5, 1e-9).is_none());
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let vals: Vec<f64> = (0..2000)
            .map(|i| 10.0 + (i as f64 * 0.05).sin() * 3.0 + (i % 7) as f64 * 0.1)
            .collect();
        for eps in [0.01, 0.1, 0.5] {
            let (d, c) = Pmc.transform(&series(vals.clone()), eps).unwrap();
            assert_eq!(d.len(), vals.len());
            assert!(
                find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                "bound violated at eps {eps}"
            );
            assert!(c.num_segments >= 1);
        }
    }

    #[test]
    fn higher_epsilon_fewer_segments() {
        let vals: Vec<f64> = (0..5000)
            .map(|i| 20.0 + (i as f64 * 0.01).sin() * 5.0 + ((i * 13) % 11) as f64 * 0.05)
            .collect();
        let s = series(vals);
        let segs: Vec<usize> = [0.01, 0.05, 0.2, 0.8]
            .iter()
            .map(|&e| Pmc.compress(&s, e).unwrap().num_segments)
            .collect();
        assert!(segs.windows(2).all(|w| w[0] >= w[1]), "{segs:?}");
        assert!(segs[0] > segs[3], "{segs:?}");
    }

    #[test]
    fn compression_ratio_improves_with_epsilon() {
        let vals: Vec<f64> = (0..5000).map(|i| 100.0 + (i as f64 * 0.02).sin() * 10.0).collect();
        let s = series(vals);
        let raw = crate::codec::raw_compressed_size(&s);
        let small = Pmc.compress(&s, 0.01).unwrap().size_bytes();
        let large = Pmc.compress(&s, 0.5).unwrap().size_bytes();
        assert!(large < small);
        assert!(raw > large, "raw gz {raw} should exceed PMC@0.5 {large}");
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(1_000_000, 900, vec![1.0, 1.01, 1.02, 5.0]).unwrap();
        let (d, _) = Pmc.transform(&s, 0.05).unwrap();
        assert_eq!(d.start(), 1_000_000);
        assert_eq!(d.interval(), 900);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn negative_values_bounded_by_magnitude() {
        let vals = vec![-10.0, -10.5, -9.8, -10.2, 10.0];
        let (d, _) = Pmc.transform(&series(vals.clone()), 0.1).unwrap();
        assert!(find_bound_violation(&vals, d.values(), 0.1, 1e-9).is_none());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let s = series(vec![1.0, 2.0]);
        assert!(Pmc.compress(&s, -1.0).is_err());
        assert!(Pmc.compress(&s, f64::NAN).is_err());
    }

    #[test]
    fn corrupt_buffer_rejected() {
        let s = series(vec![1.0, 2.0, 3.0]);
        let mut c = Pmc.compress(&s, 0.1).unwrap();
        c.bytes = deflate::compress(&[0u8; 3]); // too short for header+count
        assert!(Pmc.decompress(&c).is_err());
    }

    #[test]
    fn long_segment_split_at_u16() {
        let vals = vec![7.0; 70_000];
        let (d, c) = Pmc.transform(&series(vals.clone()), 0.1).unwrap();
        assert_eq!(d.values(), &vals[..]);
        // one logical segment even though storage splits it
        assert_eq!(c.num_segments, 1);
    }
}
