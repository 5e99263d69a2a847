//! Standard scaler (§3.4): fit on the training subset, applied to every
//! model input, exactly as the paper's pipeline does.

use crate::stats::{mean, std_dev};

/// A per-channel z-score scaler: `(x - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits one `(mean, std)` pair per channel. Channels with zero standard
    /// deviation scale by 1.0 so constant inputs map to zero rather than NaN.
    pub fn fit(channels: &[&[f64]]) -> Self {
        let means = channels.iter().map(|c| mean(c)).collect();
        let stds = channels
            .iter()
            .map(|c| {
                let s = std_dev(c);
                if s == 0.0 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Fits a univariate scaler.
    pub fn fit_single(values: &[f64]) -> Self {
        Self::fit(&[values])
    }

    /// Rebuilds a scaler from previously fitted statistics (state
    /// deserialization).
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Self {
        assert_eq!(means.len(), stds.len(), "scaler channel count mismatch");
        StandardScaler { means, stds }
    }

    /// Number of channels this scaler was fitted for.
    pub fn num_channels(&self) -> usize {
        self.means.len()
    }

    /// Scales channel `ch` values in place.
    fn transform_channel(&self, ch: usize, values: &mut [f64]) {
        let (m, s) = (self.means[ch], self.stds[ch]);
        for v in values {
            *v = (*v - m) / s;
        }
    }

    /// Returns a scaled copy of channel `ch`.
    pub fn transform(&self, ch: usize, values: &[f64]) -> Vec<f64> {
        let mut out = values.to_vec();
        self.transform_channel(ch, &mut out);
        out
    }

    /// Inverse-scales channel `ch` values in place.
    fn inverse_channel(&self, ch: usize, values: &mut [f64]) {
        let (m, s) = (self.means[ch], self.stds[ch]);
        for v in values {
            *v = *v * s + m;
        }
    }

    /// Returns an inverse-scaled copy of channel `ch`.
    pub fn inverse(&self, ch: usize, values: &[f64]) -> Vec<f64> {
        let mut out = values.to_vec();
        self.inverse_channel(ch, &mut out);
        out
    }

    /// Fitted mean of channel `ch`.
    pub fn mean_of(&self, ch: usize) -> f64 {
        self.means[ch]
    }

    /// Fitted standard deviation of channel `ch`.
    pub fn std_of(&self, ch: usize) -> f64 {
        self.stds[ch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_is_zscore() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]; // mean 5, std 2
        let sc = StandardScaler::fit_single(&v);
        let t = sc.transform(0, &v);
        assert!((t[0] + 1.5).abs() < 1e-12);
        assert!((t[7] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_inverse() {
        let v = [1.0, -3.0, 2.5, 10.0];
        let sc = StandardScaler::fit_single(&v);
        let back = sc.inverse(0, &sc.transform(0, &v));
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_channel_no_nan() {
        let v = [3.0, 3.0, 3.0];
        let sc = StandardScaler::fit_single(&v);
        let t = sc.transform(0, &v);
        assert!(t.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn multichannel_independent() {
        let a = [0.0, 2.0];
        let b = [10.0, 30.0];
        let sc = StandardScaler::fit(&[&a, &b]);
        assert_eq!(sc.num_channels(), 2);
        assert!((sc.mean_of(0) - 1.0).abs() < 1e-12);
        assert!((sc.mean_of(1) - 20.0).abs() < 1e-12);
        let tb = sc.transform(1, &b);
        assert!((tb[0] + 1.0).abs() < 1e-12);
        assert!((tb[1] - 1.0).abs() < 1e-12);
    }
}
