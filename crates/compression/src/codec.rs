//! Common interfaces for the pointwise error-bounded lossy compressors
//! (PEBLC, paper Definition 4) and the sizing rules of Eq. 3.
//!
//! All sizes follow §3.2: each compressor's representation (including the
//! shared timestamp header) is passed through the DEFLATE-style lossless
//! codec (the gzip stand-in), and the raw dataset size is the deflated size
//! of its binary representation. CR = raw `.gz` bytes / compressed `.gz`
//! bytes.

use tsdata::series::{RegularTimeSeries, SeriesError};

use crate::deflate;
use crate::timestamps::{self, TimestampError};

/// Errors from compressing or decompressing a series.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The compressed buffer is malformed.
    Corrupt(String),
    /// Timestamp header errors.
    Timestamps(TimestampError),
    /// Lossless layer errors.
    Deflate(deflate::DeflateError),
    /// Reconstructed series failed validation.
    Series(SeriesError),
    /// The requested error bound is not usable (negative or NaN).
    BadErrorBound(f64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
            CodecError::Timestamps(e) => write!(f, "timestamp header: {e}"),
            CodecError::Deflate(e) => write!(f, "lossless layer: {e}"),
            CodecError::Series(e) => write!(f, "series reconstruction: {e}"),
            CodecError::BadErrorBound(e) => write!(f, "invalid error bound {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<TimestampError> for CodecError {
    fn from(e: TimestampError) -> Self {
        CodecError::Timestamps(e)
    }
}

impl From<deflate::DeflateError> for CodecError {
    fn from(e: deflate::DeflateError) -> Self {
        CodecError::Deflate(e)
    }
}

impl From<SeriesError> for CodecError {
    fn from(e: SeriesError) -> Self {
        CodecError::Series(e)
    }
}

/// The output of a lossy (or lossless) compressor: the final on-disk bytes
/// (already passed through the lossless layer) plus bookkeeping the paper's
/// figures need.
#[derive(Debug, Clone)]
pub struct CompressedSeries {
    /// Compressor name ("PMC", "SWING", "SZ", "GORILLA").
    pub method: &'static str,
    /// Final bytes, i.e. the ".gz file" of §3.2.
    pub bytes: Vec<u8>,
    /// Number of segments the compressor produced (Figure 3). For SZ this
    /// is the number of blocks; for Gorilla it is 1.
    pub num_segments: usize,
}

impl CompressedSeries {
    /// Size in bytes of the final representation (numerator/denominator of
    /// Eq. 3).
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A pointwise error-bounded lossy compressor with a *relative* error bound
/// (Definition 4): every decompressed value satisfies
/// `|v̂ - v| <= epsilon * |v|`.
pub trait PeblcCompressor: Send + Sync {
    /// Method name as printed in the paper.
    fn name(&self) -> &'static str;

    /// Compresses under relative bound `epsilon` (>= 0; 0 means lossless
    /// within float representation).
    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError>;

    /// Decompresses a buffer produced by this compressor.
    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError>;

    /// The transformation `T` of Definition 5: compress then decompress,
    /// returning both the reconstructed series and the compressed frame.
    /// This is the chokepoint every grid transform goes through, so it
    /// carries the codec telemetry: bytes in/out counters and a round-trip
    /// duration histogram, labelled by method.
    fn transform(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<(RegularTimeSeries, CompressedSeries), CodecError> {
        let start = std::time::Instant::now();
        let c = self.compress(series, epsilon)?;
        let d = self.decompress(&c)?;
        let label = [("method", self.name())];
        telemetry::counter_add(
            "codec_bytes_in_total",
            &label,
            (series.len() * std::mem::size_of::<f64>()) as u64,
        );
        telemetry::counter_add("codec_bytes_out_total", &label, c.size_bytes() as u64);
        telemetry::observe("codec_transform_seconds", &label, telemetry::secs(start.elapsed()));
        Ok((d, c))
    }
}

/// Validates an error bound parameter.
pub(crate) fn check_epsilon(epsilon: f64) -> Result<(), CodecError> {
    if !epsilon.is_finite() || epsilon < 0.0 {
        Err(CodecError::BadErrorBound(epsilon))
    } else {
        Ok(())
    }
}

/// The per-point allowed absolute deviation under a relative bound.
#[inline]
pub(crate) fn point_bound(value: f64, epsilon: f64) -> f64 {
    epsilon * value.abs()
}

/// Picks the representative with the fewest significant decimal digits
/// inside `[lo, hi]` (midpoint when the interval is degenerate).
///
/// Any value in the interval satisfies every point's error bound, so the
/// codec is free to choose the *most compressible* one: round decimals
/// repeat across segments and across series, which is what lets the final
/// DEFLATE pass shrink constant-coefficient streams so effectively
/// (the paper's PMC-vs-Swing gzip argument, §4.2).
pub(crate) fn shortest_decimal_in(lo: f64, hi: f64) -> f64 {
    // Written to pass for NaN bounds (a NaN point's interval), which the
    // non-finite branch below handles.
    debug_assert!(lo <= hi || lo.is_nan() || hi.is_nan(), "inverted interval");
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return (lo + hi) / 2.0;
    }
    // Shrink slightly so f32 storage cannot push the choice outside.
    let margin = 1e-6 * lo.abs().max(hi.abs()).max(1e-30);
    let (l, h) = (lo + margin, hi - margin);
    if l > h {
        return (lo + hi) / 2.0;
    }
    let mid = (l + h) / 2.0;
    // Try steps from coarse (1e9) to fine; the first step with a multiple
    // inside the interval wins.
    let mut step = 1e9;
    for _ in 0..25 {
        let candidate = (mid / step).round() * step;
        if candidate >= l && candidate <= h {
            return candidate;
        }
        step /= 10.0;
    }
    mid
}

/// The raw binary representation of a series: the timestamp header followed
/// by little-endian `f64` values. This is what "the raw dataset" means for
/// Eq. 3 before gzipping.
pub fn raw_bytes(series: &RegularTimeSeries) -> Vec<u8> {
    let mut out = timestamps::encode_header(series.start(), series.interval());
    out.extend_from_slice(&(series.len() as u32).to_le_bytes());
    for &v in series.values() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deflated size of the raw representation: the paper's
/// `size_of_raw_data` (gzip applied directly to the raw dataset).
pub fn raw_compressed_size(series: &RegularTimeSeries) -> usize {
    deflate::compressed_size(&raw_bytes(series))
}

/// The paper's 13 evaluation error bounds (§3.2), denser below 0.1.
pub const ERROR_BOUNDS: [f64; 13] =
    [0.01, 0.03, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8];

/// Checks the PEBLC guarantee between an original and decompressed series:
/// returns the index of the first violating point, if any.
///
/// A pair with a non-finite side is judged exactly: NaN must decode to NaN,
/// ±inf to the same ±inf, and a finite value that decodes to ±inf or NaN is
/// a violation. Between two finite values, `slack` absorbs floating-point
/// rounding, and an `f32`-rounding allowance proportional to `|v|` is
/// always included because PMC and Swing store coefficients in single
/// precision, exactly as ModelarDB (the paper's implementation) does.
pub fn find_bound_violation(
    original: &[f64],
    decompressed: &[f64],
    epsilon: f64,
    slack: f64,
) -> Option<usize> {
    original.iter().zip(decompressed).position(|(&v, &d)| {
        if !(v.is_finite() && d.is_finite()) {
            return !(v == d || (v.is_nan() && d.is_nan()));
        }
        let f32_allowance = 4.0 * f32::EPSILON as f64 * v.abs().max(d.abs());
        (d - v).abs() > point_bound(v, epsilon) + slack + f32_allowance
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(check_epsilon(0.0).is_ok());
        assert!(check_epsilon(0.8).is_ok());
        assert!(check_epsilon(-0.1).is_err());
        assert!(check_epsilon(f64::NAN).is_err());
        assert!(check_epsilon(f64::INFINITY).is_err());
    }

    #[test]
    fn point_bound_is_relative() {
        assert_eq!(point_bound(10.0, 0.1), 1.0);
        assert_eq!(point_bound(-10.0, 0.1), 1.0);
        assert_eq!(point_bound(0.0, 0.5), 0.0);
    }

    #[test]
    fn raw_bytes_layout() {
        let s = RegularTimeSeries::new(100, 60, vec![1.0, 2.0]).unwrap();
        let b = raw_bytes(&s);
        // header + count + 2 values
        assert_eq!(b.len(), timestamps::HEADER_LEN + 4 + 16);
    }

    #[test]
    fn raw_compressed_size_smaller_than_raw_for_redundant_series() {
        let s = RegularTimeSeries::new(0, 60, vec![5.0; 10_000]).unwrap();
        assert!(raw_compressed_size(&s) < raw_bytes(&s).len() / 50);
    }

    #[test]
    fn violation_finder() {
        let orig = [10.0, 20.0, 30.0];
        let ok = [10.5, 19.0, 31.0];
        assert_eq!(find_bound_violation(&orig, &ok, 0.1, 1e-9), None);
        let bad = [10.5, 17.0, 31.0];
        assert_eq!(find_bound_violation(&orig, &bad, 0.1, 1e-9), Some(1));
    }

    #[test]
    fn violation_finder_judges_non_finite_points_exactly() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let violates = |v: f64, d: f64| find_bound_violation(&[v], &[d], 0.8, 1e-9) == Some(0);
        assert!(violates(1.0, inf));
        assert!(violates(f64::MAX, inf));
        assert!(violates(1.0, nan));
        assert!(violates(nan, 1.0));
        assert!(violates(inf, -inf));
        assert!(!violates(nan, nan));
        assert!(!violates(inf, inf));
        assert!(!violates(-inf, -inf));
    }

    #[test]
    fn error_bounds_match_paper() {
        assert_eq!(ERROR_BOUNDS.len(), 13);
        assert_eq!(ERROR_BOUNDS[0], 0.01);
        assert_eq!(ERROR_BOUNDS[12], 0.8);
        assert!(ERROR_BOUNDS.windows(2).all(|w| w[0] < w[1]));
    }
}
