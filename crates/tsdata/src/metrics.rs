//! Evaluation metrics from §3.5 of the paper: RMSE, NRMSE, RSE, Pearson R —
//! the distances behind transformation error (TE, Definition 6) and
//! forecasting error (FE, Definition 8) — plus the derived transformation
//! forecasting error (TFE, Definition 9) and compression ratio (CR, Eq. 3).

use crate::stats::mean;

/// Root Mean Square Error between two equal-length slices (Eq. 5).
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn rmse(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rmse: length mismatch");
    assert!(!x.is_empty(), "rmse: empty input");
    let ss: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    (ss / x.len() as f64).sqrt()
}

/// Normalized RMSE (Eq. 4): RMSE divided by the range of the reference
/// series `x`. Returns RMSE unscaled when the range is zero.
pub fn nrmse(x: &[f64], y: &[f64]) -> f64 {
    let r = range(x);
    let e = rmse(x, y);
    if r == 0.0 {
        e
    } else {
        e / r
    }
}

/// Root Relative Squared Error: `sqrt(sum (x-y)^2) / sqrt(sum (x-mean(x))^2)`.
/// Returns infinity for a constant reference with nonzero error.
pub fn rse(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rse: length mismatch");
    assert!(!x.is_empty(), "rse: empty input");
    let mx = mean(x);
    let num: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (num / den).sqrt()
    }
}

/// Pearson correlation coefficient. Returns 0.0 when either side is
/// constant (undefined correlation).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    assert!(!x.is_empty(), "pearson: empty input");
    let (mx, my) = (mean(x), mean(y));
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (a, b) in x.iter().zip(y) {
        num += (a - mx) * (b - my);
        dx += (a - mx) * (a - mx);
        dy += (b - my) * (b - my);
    }
    if dx == 0.0 || dy == 0.0 {
        0.0
    } else {
        num / (dx.sqrt() * dy.sqrt())
    }
}

/// `max(x) - min(x)`; 0.0 for an empty slice.
fn range(x: &[f64]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        0.0
    } else {
        hi - lo
    }
}

/// A full row of the paper's accuracy tables: all four metrics at once.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSet {
    /// Pearson correlation.
    pub r: f64,
    /// Root relative squared error.
    pub rse: f64,
    /// Root mean square error.
    pub rmse: f64,
    /// Range-normalized RMSE.
    pub nrmse: f64,
}

/// Computes all four §3.5 metrics (reference `x`, candidate `y`).
pub fn metric_set(x: &[f64], y: &[f64]) -> MetricSet {
    MetricSet { r: pearson(x, y), rse: rse(x, y), rmse: rmse(x, y), nrmse: nrmse(x, y) }
}

/// Transformation forecasting error (Definition 9, Eq. 2):
/// `(FE_transformed - FE_raw) / FE_raw`. Negative values mean compression
/// *improved* forecasting accuracy.
///
/// Returns 0.0 when the baseline error is zero and the transformed error is
/// too, and infinity when only the baseline is zero.
pub fn tfe(fe_raw: f64, fe_transformed: f64) -> f64 {
    if fe_raw == 0.0 {
        if fe_transformed == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (fe_transformed - fe_raw) / fe_raw
    }
}

/// Compression ratio (Eq. 3): raw bytes over compressed bytes.
///
/// # Panics
/// Panics if `compressed_bytes` is zero.
pub fn compression_ratio(raw_bytes: usize, compressed_bytes: usize) -> f64 {
    assert!(compressed_bytes > 0, "compression ratio with zero compressed size");
    raw_bytes as f64 / compressed_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_known_value() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 2.0, 5.0];
        // squared errors: 1, 0, 4 -> mean 5/3
        assert!((rmse(&x, &y) - (5.0_f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_zero_for_identical() {
        let x = [3.0, 1.0, 4.0];
        assert_eq!(rmse(&x, &x), 0.0);
        assert_eq!(nrmse(&x, &x), 0.0);
        assert_eq!(rse(&x, &x), 0.0);
    }

    #[test]
    fn nrmse_divides_by_range() {
        let x = [0.0, 10.0];
        let y = [1.0, 9.0];
        assert!((nrmse(&x, &y) - rmse(&x, &y) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn nrmse_constant_reference_falls_back_to_rmse() {
        let x = [5.0, 5.0];
        let y = [4.0, 6.0];
        assert!((nrmse(&x, &y) - rmse(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn rse_relative_to_variance() {
        let x = [1.0, 3.0]; // mean 2, sum sq dev = 2
        let y = [2.0, 2.0]; // sum sq err = 2
        assert!((rse(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rse_constant_reference() {
        assert_eq!(rse(&[2.0, 2.0], &[2.0, 2.0]), 0.0);
        assert!(rse(&[2.0, 2.0], &[2.0, 3.0]).is_infinite());
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        let z = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tfe_signs() {
        assert!((tfe(0.5, 0.6) - 0.2).abs() < 1e-12); // degraded 20%
        assert!((tfe(0.5, 0.4) + 0.2).abs() < 1e-12); // improved 20%
        assert_eq!(tfe(0.0, 0.0), 0.0);
        assert!(tfe(0.0, 0.1).is_infinite());
    }

    #[test]
    fn compression_ratio_basic() {
        assert!((compression_ratio(1000, 100) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn compression_ratio_zero_panics() {
        compression_ratio(10, 0);
    }

    #[test]
    fn metric_set_consistent_with_individual() {
        let x = [1.0, 2.0, 4.0, 8.0];
        let y = [1.5, 2.5, 3.5, 8.5];
        let s = metric_set(&x, &y);
        assert_eq!(s.rmse, rmse(&x, &y));
        assert_eq!(s.nrmse, nrmse(&x, &y));
        assert_eq!(s.rse, rse(&x, &y));
        assert_eq!(s.r, pearson(&x, &y));
    }
}
