//! Streaming (online) compression — the paper's deployment scenario (§1):
//! "the time series are lossy compressed on the wind turbine" and shipped
//! segment by segment over a constrained link.
//!
//! Every streaming codec has exactly one encoder, and the batch API is a
//! fold over it (push every point, then drain):
//!
//! * PMC — [`StreamingPmc`](crate::pmc::StreamingPmc);
//! * Swing — [`StreamingSwing`](crate::swing::StreamingSwing);
//! * Gorilla values — [`ValueAppender`](crate::gorilla::ValueAppender);
//! * varbit timestamps — [`StreamAppender`](crate::timestamps::StreamAppender).
//!
//! The encoders never cut a segment at the 16-bit length field; the frame
//! writers (`encode_segments`) split long segments at serialization time.
//! So a streamed frame is byte-identical to the batch frame by
//! construction, whatever the stream length.

use tsdata::series::SeriesSource;

use crate::codec::{CodecError, CompressedSeries, PeblcCompressor};
use crate::Method;

/// Compresses a [`SeriesSource`] under `(method, epsilon)` by streaming its
/// values through the online encoders, producing a frame *byte-identical*
/// to `method.compressor().compress(...)` of the materialised series (both
/// run the same per-codec function). PMC and Swing never hold more than
/// the open window; SZ is block-based and falls back to collecting the
/// values.
///
/// This is how the store re-encodes chunk-backed reads: identical frame
/// bytes mean identical sizes, segment counts and decoded series, so a
/// store-backed grid reproduces the in-memory grid's CSVs exactly.
pub fn compress_source(
    source: &dyn SeriesSource,
    method: Method,
    epsilon: f64,
) -> Result<CompressedSeries, CodecError> {
    let (start, interval) = (source.start(), source.interval());
    match method {
        Method::Pmc => crate::pmc::compress_values(start, interval, source.iter_values(), epsilon),
        Method::Swing => {
            crate::swing::compress_values(start, interval, source.iter_values(), epsilon)
        }
        Method::Sz => {
            // SZ quantizes over fixed blocks, so it needs the values at
            // hand; materialise and defer to the batch implementation.
            let series = source.materialize().map_err(CodecError::from)?;
            crate::Sz.compress(&series, epsilon)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::point_bound;
    use crate::pmc::{PmcSegment, StreamingPmc};
    use crate::swing::{StreamingSwing, SwingSegment};
    use tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};

    fn drain_pmc(values: &[f64], eps: f64) -> Vec<PmcSegment> {
        let mut s = StreamingPmc::new(eps);
        let mut out: Vec<PmcSegment> = values.iter().filter_map(|&v| s.push(v)).collect();
        out.extend(s.drain());
        out
    }

    fn drain_swing(values: &[f64], eps: f64) -> Vec<SwingSegment> {
        let mut s = StreamingSwing::new(eps);
        let mut out: Vec<SwingSegment> = values.iter().filter_map(|&v| s.push(v)).collect();
        out.extend(s.drain());
        out
    }

    /// PMC-Mean's greedy windows recomputed from the definition, each
    /// quantity from scratch over the whole window: a window grows while
    /// the intersection `[lo, hi]` of its points' bound intervals is
    /// non-empty and holds the window mean. Returns `(len, lo, hi)` per
    /// window.
    fn pmc_reference(values: &[f64], eps: f64) -> Vec<(usize, f64, f64)> {
        let bounds = |w: &[f64]| {
            let lo = w.iter().map(|&v| v - point_bound(v, eps)).fold(f64::NEG_INFINITY, f64::max);
            let hi = w.iter().map(|&v| v + point_bound(v, eps)).fold(f64::INFINITY, f64::min);
            (lo, hi)
        };
        let admits = |w: &[f64]| {
            let (lo, hi) = bounds(w);
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            lo <= hi && mean >= lo && mean <= hi
        };
        let mut out = Vec::new();
        let mut start = 0;
        while start < values.len() {
            let mut end = start + 1;
            while end < values.len() && admits(&values[start..=end]) {
                end += 1;
            }
            let (lo, hi) = bounds(&values[start..end]);
            out.push((end - start, lo, hi));
            start = end;
        }
        out
    }

    /// Swing's greedy windows recomputed from the definition: the slope
    /// interval of a window anchored at its first value is the
    /// intersection of every later point's interval, shrunk by the f32
    /// coefficient margin (an exact zero pins the slope at 0 and needs a
    /// zero anchor), recomputed from scratch over the whole window.
    fn swing_reference(values: &[f64], eps: f64) -> Vec<SwingSegment> {
        let slopes = |w: &[f64]| -> Option<(f64, f64)> {
            let anchor = w[0];
            let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
            for (off, &v) in w.iter().enumerate().skip(1) {
                let (l, h) = if v == 0.0 && eps < 1.0 {
                    if anchor != 0.0 {
                        return None;
                    }
                    (0.0, 0.0)
                } else {
                    let b = point_bound(v, eps);
                    let b_eff = b - 2.0 * f32::EPSILON as f64 * (anchor.abs() + v.abs() + b);
                    if b_eff.is_nan() || b_eff <= 0.0 {
                        return None;
                    }
                    ((v - b_eff - anchor) / off as f64, (v + b_eff - anchor) / off as f64)
                };
                lo = lo.max(l);
                hi = hi.min(h);
            }
            (lo <= hi).then_some((lo, hi))
        };
        let mut out = Vec::new();
        let mut start = 0;
        while start < values.len() {
            let mut end = start + 1;
            while end < values.len() && slopes(&values[start..=end]).is_some() {
                end += 1;
            }
            let (lo, hi) = slopes(&values[start..end]).expect("an admitted window");
            let slope = if lo.is_finite() && hi.is_finite() { (lo + hi) / 2.0 } else { 0.0 };
            out.push(SwingSegment { len: end - start, intercept: values[start], slope });
            start = end;
        }
        out
    }

    #[test]
    fn streaming_pmc_matches_batch() {
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(3_000));
        for eps in [0.01, 0.1, 0.4] {
            let streamed = drain_pmc(series.values(), eps);
            let batch = pmc_reference(series.values(), eps);
            assert_eq!(streamed.len(), batch.len(), "eps {eps}");
            for (s, &(len, lo, hi)) in streamed.iter().zip(&batch) {
                assert_eq!(s.len, len, "eps {eps}");
                assert!(
                    lo <= s.value && s.value <= hi,
                    "eps {eps}: {} outside [{lo}, {hi}]",
                    s.value
                );
            }
        }
    }

    #[test]
    fn streaming_swing_matches_batch() {
        let series = generate_univariate(DatasetKind::Solar, GenOptions::with_len(3_000));
        for eps in [0.01, 0.1, 0.4] {
            let streamed = drain_swing(series.values(), eps);
            assert_eq!(streamed, swing_reference(series.values(), eps), "eps {eps}");
        }
    }

    #[test]
    fn segments_cover_the_stream() {
        let series = generate_univariate(DatasetKind::Wind, GenOptions::with_len(2_000));
        let segs = drain_pmc(series.values(), 0.1);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 2_000);
        let segs = drain_swing(series.values(), 0.1);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 2_000);
    }

    #[test]
    fn non_finite_points_stay_covered() {
        // A NaN admits no window, so it closes the open one and sits in a
        // one-point segment of its own; ±inf likewise. No point is lost.
        let values = [10.0, 10.1, f64::NAN, 10.2, f64::INFINITY, f64::NEG_INFINITY, 10.0, f64::NAN];
        for eps in [0.0, 0.1, 0.8] {
            let pmc: usize = drain_pmc(&values, eps).iter().map(|s| s.len).sum();
            let swing: usize = drain_swing(&values, eps).iter().map(|s| s.len).sum();
            assert_eq!((pmc, swing), (values.len(), values.len()), "eps {eps}");
        }
        let segs = drain_pmc(&values, 0.1);
        assert_eq!(segs[1].len, 1);
        assert!(segs[1].value.is_nan());
    }

    #[test]
    fn long_segments_stay_whole_in_the_encoders() {
        // Neither encoder cuts at the 16-bit length field: that split
        // happens only when the frame is written.
        let n = 200_000;
        let mut p = StreamingPmc::new(0.1);
        let mut w = StreamingSwing::new(0.1);
        for _ in 0..n {
            assert!(p.push(5.0).is_none());
            assert!(w.push(5.0).is_none());
        }
        assert_eq!(p.drain(), Some(PmcSegment { len: n, value: 5.0 }));
        assert_eq!(w.drain().map(|s| s.len), Some(n));
    }

    #[test]
    fn compress_source_is_byte_identical_to_batch() {
        for kind in [DatasetKind::ETTm1, DatasetKind::Solar, DatasetKind::Wind] {
            let series = generate_univariate(kind, GenOptions::with_len(2_500));
            for method in crate::ALL_METHODS {
                for eps in [0.01, 0.1, 0.4] {
                    let streamed = compress_source(&series, method, eps).unwrap();
                    let batch = method.compressor().compress(&series, eps).unwrap();
                    assert_eq!(streamed.bytes, batch.bytes, "{kind:?} {method:?} eps {eps}");
                    assert_eq!(streamed.num_segments, batch.num_segments);
                    assert_eq!(streamed.method, batch.method);
                }
            }
        }
    }

    #[test]
    fn compress_source_rejects_bad_epsilon() {
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(64));
        assert!(compress_source(&series, Method::Pmc, -1.0).is_err());
        assert!(compress_source(&series, Method::Swing, f64::NAN).is_err());
    }

    #[test]
    fn empty_stream_drains_empty() {
        assert!(StreamingPmc::new(0.1).drain().is_none());
        assert!(StreamingSwing::new(0.1).drain().is_none());
    }

    #[test]
    fn drain_then_continue_starts_a_fresh_segment() {
        // Seal-then-continue (the store's chunk boundary): the drained
        // window must not leak state into the next segment.
        let mut p = StreamingPmc::new(0.1);
        p.push(10.0);
        p.push(10.2);
        assert_eq!(p.drain().map(|s| s.len), Some(2));
        assert!(p.drain().is_none(), "second drain on an empty window");
        // 50.0 would have violated the [10-ish] window; a fresh segment
        // accepts it as its first point.
        assert_eq!(p.push(50.0), None);
        assert_eq!(p.drain(), Some(PmcSegment { len: 1, value: 50.0 }));

        let mut w = StreamingSwing::new(0.1);
        w.push(1.0);
        w.push(2.0);
        let seg = w.drain().unwrap();
        assert_eq!((seg.len, seg.intercept), (2, 1.0));
        assert!(w.drain().is_none());
        // The next point re-anchors: drained state must not constrain it.
        assert_eq!(w.push(-7.0), None);
        let seg = w.drain().unwrap();
        assert_eq!((seg.len, seg.intercept, seg.slope), (1, -7.0, 0.0));
    }

    #[test]
    fn drain_segments_match_chunked_batch() {
        // Draining every k points must equal batch segmentation of each
        // k-point slice — the store's byte-identity precondition.
        let series = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(1_024));
        for k in [37usize, 256] {
            let mut s = StreamingPmc::new(0.1);
            let mut streamed = Vec::new();
            for chunk in series.values().chunks(k) {
                streamed.extend(chunk.iter().filter_map(|&v| s.push(v)));
                streamed.extend(s.drain());
            }
            let batch: Vec<PmcSegment> =
                series.values().chunks(k).flat_map(|c| drain_pmc(c, 0.1)).collect();
            assert_eq!(streamed, batch, "k={k}");
        }
    }
}
