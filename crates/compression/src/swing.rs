//! Swing filter (Elmeleegy et al., VLDB 2009) with a relative pointwise
//! error bound.
//!
//! The filter grows a window anchored at the window's first value and
//! maintains the set of line slopes that keep every later point within its
//! allowed interval. Adding point `v_i` at offset `i` (in samples) requires
//! the slope `s` to satisfy `anchor + s*i ∈ [v_i - b_i, v_i + b_i]` with
//! `b_i = eps * |v_i|`, i.e. `s ∈ [(v_i - b_i - anchor)/i, (v_i + b_i -
//! anchor)/i]`. When the running intersection of these slope intervals
//! empties, the window (without the new point) becomes a segment.
//!
//! Following ModelarDB's implementation — which the paper uses — the emitted
//! slope is the mean of the surviving upper and lower slope bounds (§3.2
//! "Implementations Used"). Each segment stores two single-precision
//! coefficients (intercept = anchor, slope), which is exactly the storage
//! overhead the paper blames for Swing's low CR after gzip (§4.2): unlike
//! PMC's snapped constants, slope/intercept pairs are unique and deflate
//! poorly.

use tsdata::series::RegularTimeSeries;

use crate::codec::{check_epsilon, point_bound, CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::reader::ByteReader;
use crate::timestamps;

/// The Swing filter compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Swing;

/// A decoded Swing segment: a line over `len` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwingSegment {
    /// Number of points covered.
    pub len: usize,
    /// Line value at the segment's first point.
    pub intercept: f64,
    /// Per-sample slope.
    pub slope: f64,
}

/// Online Swing filter: push points one at a time, receive each line
/// segment as soon as the error bound closes it. This is the one Swing
/// encoder: [`Swing::compress`], `compress_source` and the store's chunk
/// appends all fold over it.
#[derive(Debug, Clone)]
pub struct StreamingSwing {
    epsilon: f64,
    /// The open window's first value.
    anchor: f64,
    /// Points in the open window (0 before the first point and after a
    /// drain).
    len: usize,
    slope_lo: f64,
    slope_hi: f64,
}

impl StreamingSwing {
    /// Creates a filter with relative bound `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        StreamingSwing {
            epsilon,
            anchor: 0.0,
            len: 0,
            slope_lo: f64::NEG_INFINITY,
            slope_hi: f64::INFINITY,
        }
    }

    /// Pushes one point; returns the segment it closed, if any.
    #[inline]
    pub fn push(&mut self, v: f64) -> Option<SwingSegment> {
        if self.len == 0 {
            self.anchor = v;
            self.len = 1;
            return None;
        }
        let anchor = self.anchor;
        // Exact zeros have a zero bound under the relative-error model, so
        // the reconstruction must hit them exactly. A zero-anchored
        // zero-slope line represents runs of zeros; any other case forces
        // a new segment anchored at the zero (a pinned nonzero slope would
        // not survive single-precision coefficient storage).
        if v == 0.0 && self.epsilon < 1.0 {
            if anchor == 0.0 && self.slope_lo <= 0.0 && 0.0 <= self.slope_hi {
                self.slope_lo = 0.0;
                self.slope_hi = 0.0;
                self.len += 1;
                return None;
            }
        } else {
            // The new point's offset (in samples) from the anchor.
            let off = self.len as f64;
            // Shrink the bound by the worst-case single-precision
            // coefficient rounding (|Δanchor| + off·|Δslope|, with
            // off·|slope| bounded by |v| + |anchor| + b), so the stored f32
            // line still satisfies the exact bound.
            let b = point_bound(v, self.epsilon);
            let margin = 2.0 * f32::EPSILON as f64 * (anchor.abs() + v.abs() + b);
            let b_eff = b - margin;
            let nlo = self.slope_lo.max((v - b_eff - anchor) / off);
            let nhi = self.slope_hi.min((v + b_eff - anchor) / off);
            if b_eff > 0.0 && nlo <= nhi {
                self.slope_lo = nlo;
                self.slope_hi = nhi;
                self.len += 1;
                return None;
            }
        }
        // Close the window without the latest point, which anchors the
        // next one.
        let closed = self.segment();
        self.anchor = v;
        self.len = 1;
        self.slope_lo = f64::NEG_INFINITY;
        self.slope_hi = f64::INFINITY;
        closed
    }

    /// Flushes the open window, leaving the filter empty: the next `push`
    /// re-anchors from scratch. End of stream and the store's chunk seal
    /// both flush this way.
    pub fn drain(&mut self) -> Option<SwingSegment> {
        let closed = self.segment();
        *self = Self::new(self.epsilon);
        closed
    }

    /// The open window as a line segment, if it holds any point.
    fn segment(&self) -> Option<SwingSegment> {
        if self.len == 0 {
            return None;
        }
        let slope = if self.slope_lo.is_finite() && self.slope_hi.is_finite() {
            // The mean of the surviving slope bounds, exactly as
            // ModelarDB's Swing computes its coefficients (§3.2
            // "Implementations Used").
            (self.slope_lo + self.slope_hi) / 2.0
        } else {
            // Single-point segment: any slope works; use 0.
            0.0
        };
        Some(SwingSegment { len: self.len, intercept: self.anchor, slope })
    }
}

/// Pushes every value through `enc`, then drains it.
fn fold(mut enc: StreamingSwing, values: impl IntoIterator<Item = f64>) -> Vec<SwingSegment> {
    let mut segments = Vec::new();
    for v in values {
        segments.extend(enc.push(v));
    }
    segments.extend(enc.drain());
    segments
}

/// The Swing frame of a value stream: the one compress path behind
/// [`Swing::compress`] and `compress_source`.
pub(crate) fn compress_values(
    start: i64,
    interval: i64,
    values: impl IntoIterator<Item = f64>,
    epsilon: f64,
) -> Result<CompressedSeries, CodecError> {
    check_epsilon(epsilon)?;
    let segments = fold(StreamingSwing::new(epsilon), values);
    Ok(CompressedSeries {
        method: "SWING",
        bytes: encode_segments(start, interval, &segments)?,
        num_segments: segments.len(),
    })
}

/// Serializes already-segmented Swing output into the deflated frame format
/// `Swing::decompress` reads. Segments longer than the 16-bit length field
/// are split here, and only here, so the filter never cuts at the cap; the
/// store seals its streamed segments through the same path.
pub fn encode_segments(
    start: i64,
    interval: i64,
    segments: &[SwingSegment],
) -> Result<Vec<u8>, CodecError> {
    let mut inner = timestamps::try_encode_header(start, interval)?;
    // Split lengths at the 16-bit cap; continuation chunks re-anchor the
    // line so reconstruction stays exact.
    let mut stored: Vec<(u16, f64, f64)> = Vec::with_capacity(segments.len());
    for s in segments {
        let mut offset = 0usize;
        for chunk in timestamps::split_segment_len(s.len) {
            stored.push((chunk, s.intercept + s.slope * offset as f64, s.slope));
            offset += chunk as usize;
        }
    }
    inner.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    for (len, intercept, slope) in &stored {
        inner.extend_from_slice(&len.to_le_bytes());
        // Two single-precision coefficients per segment, matching
        // ModelarDB's storage (and the paper's storage-overhead
        // argument for Swing's low CR, §4.2).
        inner.extend_from_slice(&(*intercept as f32).to_le_bytes());
        inner.extend_from_slice(&(*slope as f32).to_le_bytes());
    }
    Ok(deflate::compress(&inner))
}

impl PeblcCompressor for Swing {
    fn name(&self) -> &'static str {
        "SWING"
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
        // 10 bytes per stored segment (u16 length + two f32 coefficients).
        if n_seg > r.bounded_capacity(n_seg, 10) {
            return Err(CodecError::Corrupt(format!(
                "segment count {n_seg} exceeds the {} remaining bytes",
                r.remaining()
            )));
        }
        // Fixed 10-byte records: pre-scan the length fields to size the
        // output exactly (clamped against hostile lengths).
        let rest = r.rest();
        let total: usize =
            (0..n_seg).map(|i| u16::from_le_bytes([rest[10 * i], rest[10 * i + 1]]) as usize).sum();
        let mut values = Vec::with_capacity(total.min(1 << 20));
        for _ in 0..n_seg {
            let len = r.read_u16_le()? as usize;
            let intercept = r.read_f32_le()? as f64;
            let slope = r.read_f32_le()? as f64;
            values.extend((0..len).map(|i| intercept + slope * i as f64));
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

    fn segment_values(values: &[f64], epsilon: f64) -> Vec<SwingSegment> {
        fold(StreamingSwing::new(epsilon), values.iter().copied())
    }

    #[test]
    fn perfect_line_is_one_segment() {
        let vals: Vec<f64> = (0..1000).map(|i| 5.0 + 0.25 * i as f64).collect();
        let segs = segment_values(&vals, 0.01);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].slope - 0.25).abs() < 1e-9);
        assert!((segs[0].intercept - 5.0).abs() < 1e-12);
    }

    #[test]
    fn piecewise_linear_splits_at_knees() {
        // Odd values avoid exact zeros (which force their own re-anchor).
        let mut vals: Vec<f64> = (0..100).map(|i| 10.0 + i as f64).collect();
        vals.extend((0..100).map(|i| 111.0 - 2.0 * i as f64));
        let segs = segment_values(&vals, 0.0001);
        assert_eq!(segs.len(), 2, "{segs:?}");
    }

    #[test]
    fn exact_zero_inside_segment_forces_reanchor() {
        // A ramp through zero: the zero point must reconstruct exactly.
        let vals: Vec<f64> = (0..21).map(|i| 10.0 - i as f64).collect();
        let segs = segment_values(&vals, 0.05);
        let rebuilt: Vec<f64> = segs
            .iter()
            .flat_map(|s| (0..s.len).map(|i| s.intercept + s.slope * i as f64))
            .collect();
        assert_eq!(rebuilt[10], 0.0, "zero at index 10 must be exact");
    }

    #[test]
    fn zero_runs_share_one_segment() {
        // Solar nights: long zero runs must not explode into per-point
        // segments.
        let mut vals = vec![5.0, 4.0];
        vals.extend(vec![0.0; 100]);
        vals.extend([3.0, 4.0]);
        let segs = segment_values(&vals, 0.1);
        assert!(segs.len() <= 4, "{} segments for a zero run", segs.len());
    }

    #[test]
    fn anchor_is_exact_first_value() {
        let vals = vec![10.0, 12.0, 14.0, 100.0, 90.0];
        let segs = segment_values(&vals, 0.05);
        assert_eq!(segs[0].intercept, 10.0);
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        let vals: Vec<f64> = (0..3000)
            .map(|i| 20.0 + (i as f64 * 0.03).sin() * 8.0 + ((i * 7) % 5) as f64 * 0.02)
            .collect();
        for eps in [0.01, 0.1, 0.4] {
            let (d, _) = Swing.transform(&series(vals.clone()), eps).unwrap();
            assert!(
                find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                "bound violated at eps {eps}"
            );
        }
    }

    #[test]
    fn fewer_segments_than_pmc_on_trending_data() {
        // Swing's two-coefficient model fits trends PMC cannot (Figure 3:
        // Swing has the lowest segment counts).
        let vals: Vec<f64> =
            (0..4000).map(|i| (i as f64 * 0.01) * 10.0 + (i as f64 * 0.2).sin()).collect();
        let swing = segment_values(&vals, 0.05).len();
        let mut enc = crate::pmc::StreamingPmc::new(0.05);
        let pmc = vals.iter().filter_map(|&v| enc.push(v)).count() + enc.drain().iter().count();
        assert!(swing < pmc, "swing {swing} vs pmc {pmc}");
    }

    #[test]
    fn lower_cr_than_pmc_despite_fewer_segments() {
        // The paper's §4.2 storage argument: Swing's slope/intercept pairs
        // gzip worse than PMC's constants, so PMC wins CR at high eps.
        let vals: Vec<f64> = (0..8000)
            .map(|i| 50.0 + (i as f64 * 0.01).sin() * 10.0 + ((i * 31) % 17) as f64 * 0.01)
            .collect();
        let s = series(vals);
        let pmc = crate::pmc::Pmc.compress(&s, 0.5).unwrap().size_bytes();
        let swing = Swing.compress(&s, 0.5).unwrap().size_bytes();
        assert!(pmc < swing, "pmc {pmc} vs swing {swing}");
    }

    #[test]
    fn exact_zeros_preserved() {
        let vals = vec![0.0, 0.0, 3.0, 4.0, 0.0];
        let (d, _) = Swing.transform(&series(vals.clone()), 0.8).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.8, 1e-9).is_none());
    }

    #[test]
    fn single_point_series() {
        let (d, c) = Swing.transform(&series(vec![42.0]), 0.1).unwrap();
        assert_eq!(d.values(), &[42.0]);
        assert_eq!(c.num_segments, 1);
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(5_000, 1800, vec![1.0, 2.0, 3.0]).unwrap();
        let (d, _) = Swing.transform(&s, 0.1).unwrap();
        assert_eq!(d.start(), 5_000);
        assert_eq!(d.interval(), 1800);
    }

    #[test]
    fn long_segment_split_reconstructs_exactly() {
        let vals: Vec<f64> = (0..70_000).map(|i| 1.0 + 0.001 * i as f64).collect();
        let (d, c) = Swing.transform(&series(vals.clone()), 0.05).unwrap();
        assert_eq!(c.num_segments, 1);
        assert!(find_bound_violation(&vals, d.values(), 0.05, 1e-9).is_none());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        assert!(Swing.compress(&series(vec![1.0]), -0.5).is_err());
    }
}
