//! Dataset splitting and sliding-window construction (§3.4 / §3.6).
//!
//! The paper splits each dataset 70%/10%/20% into train/validation/test,
//! fixes the model input to the 96 previous timestamps and the forecasting
//! horizon to 24 timestamps.

use std::collections::VecDeque;

use crate::series::{MultiSeries, SeriesError, SeriesSource};

/// Fractions for the paper's 70/10/20 split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitSpec {
    /// Training fraction.
    pub train: f64,
    /// Validation fraction.
    pub val: f64,
}

impl Default for SplitSpec {
    fn default() -> Self {
        SplitSpec { train: 0.7, val: 0.1 }
    }
}

/// The three chronological subsets of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training subset (first 70%).
    pub train: MultiSeries,
    /// Validation subset (next 10%).
    pub val: MultiSeries,
    /// Test subset (last 20%).
    pub test: MultiSeries,
}

/// Splits a multivariate series chronologically according to `spec`.
pub fn split(data: &MultiSeries, spec: SplitSpec) -> Result<Split, SeriesError> {
    let n = data.len();
    let train_end = (n as f64 * spec.train).floor() as usize;
    let val_end = (n as f64 * (spec.train + spec.val)).floor() as usize;
    if train_end == 0 || val_end <= train_end || val_end >= n {
        return Err(SeriesError::BadRange { start: train_end, end: val_end, len: n });
    }
    Ok(Split {
        train: data.slice(0, train_end)?,
        val: data.slice(train_end, val_end)?,
        test: data.slice(val_end, n)?,
    })
}

/// One supervised sample: an input window over all channels and the target
/// channel's future values.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Input values, one `Vec` per channel, each of length `input_len`.
    pub inputs: Vec<Vec<f64>>,
    /// Target-channel ground truth, length `horizon`.
    pub target: Vec<f64>,
    /// Index (into the source series) of the first input point.
    pub start: usize,
}

/// Builds sliding windows with the given stride. A window at position `s`
/// uses inputs `s..s+input_len` and targets `s+input_len..s+input_len+horizon`
/// from the target channel.
pub fn make_windows(
    data: &MultiSeries,
    input_len: usize,
    horizon: usize,
    stride: usize,
) -> Vec<Window> {
    let sources: Vec<&dyn SeriesSource> =
        data.channels().iter().map(|c| c as &dyn SeriesSource).collect();
    make_windows_from(&sources, data.target_index(), input_len, horizon, stride)
}

/// Builds the same sliding windows from [`SeriesSource`]s in one streaming
/// pass: each channel is read through its iterator exactly once, with a
/// ring buffer holding only the `input_len + horizon` most recent points
/// per channel. This is what lets chunk-backed store reads feed the
/// forecasting windowers without ever materialising a full series.
pub fn make_windows_from(
    channels: &[&dyn SeriesSource],
    target: usize,
    input_len: usize,
    horizon: usize,
    stride: usize,
) -> Vec<Window> {
    assert!(input_len > 0 && horizon > 0 && stride > 0, "window parameters must be positive");
    assert!(target < channels.len(), "target channel {target} of {}", channels.len());
    let span = input_len + horizon;
    let n = channels.iter().map(|c| c.len()).min().unwrap_or(0);
    if n < span {
        return Vec::new();
    }
    let mut windows = Vec::with_capacity((n - span) / stride + 1);
    let mut rings: Vec<VecDeque<f64>> =
        channels.iter().map(|_| VecDeque::with_capacity(span)).collect();
    let mut iters: Vec<_> = channels.iter().map(|c| c.iter_values()).collect();
    for i in 0..n {
        for (ring, it) in rings.iter_mut().zip(iters.iter_mut()) {
            if ring.len() == span {
                ring.pop_front();
            }
            ring.push_back(it.next().expect("source shorter than its declared len"));
        }
        // The ring now holds indices s..=i with s = i + 1 - span.
        if i + 1 >= span {
            let s = i + 1 - span;
            if s.is_multiple_of(stride) {
                let inputs =
                    rings.iter().map(|r| r.iter().take(input_len).copied().collect()).collect();
                let t = rings[target].iter().skip(input_len).copied().collect();
                windows.push(Window { inputs, target: t, start: s });
            }
        }
    }
    windows
}

/// Pairs each test window's *transformed* inputs with the *raw* targets, as
/// Algorithm 1 requires (`test.x` transformed, `test.y` raw).
///
/// Both series must be aligned (same length and channel count).
pub fn make_eval_windows(
    raw: &MultiSeries,
    transformed: &MultiSeries,
    input_len: usize,
    horizon: usize,
    stride: usize,
) -> Result<Vec<Window>, SeriesError> {
    if raw.len() != transformed.len() {
        return Err(SeriesError::LengthMismatch { left: raw.len(), right: transformed.len() });
    }
    let mut windows = make_windows(transformed, input_len, horizon, stride);
    let raw_target = raw.target().values();
    for w in &mut windows {
        w.target.copy_from_slice(&raw_target[w.start + input_len..w.start + input_len + horizon]);
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::RegularTimeSeries;

    fn series(n: usize) -> MultiSeries {
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        MultiSeries::univariate("x", RegularTimeSeries::new(0, 60, vals).unwrap())
    }

    #[test]
    fn split_fractions() {
        let s = split(&series(100), SplitSpec::default()).unwrap();
        assert_eq!(s.train.len(), 70);
        assert_eq!(s.val.len(), 10);
        assert_eq!(s.test.len(), 20);
        // chronological
        assert_eq!(s.train.target().values()[0], 0.0);
        assert_eq!(s.val.target().values()[0], 70.0);
        assert_eq!(s.test.target().values()[0], 80.0);
    }

    #[test]
    fn split_too_small_errors() {
        assert!(split(&series(3), SplitSpec::default()).is_err());
    }

    #[test]
    fn windows_cover_series() {
        let w = make_windows(&series(10), 3, 2, 1);
        // positions 0..=5 -> 6 windows
        assert_eq!(w.len(), 6);
        assert_eq!(w[0].inputs[0], vec![0.0, 1.0, 2.0]);
        assert_eq!(w[0].target, vec![3.0, 4.0]);
        assert_eq!(w[5].inputs[0], vec![5.0, 6.0, 7.0]);
        assert_eq!(w[5].target, vec![8.0, 9.0]);
    }

    #[test]
    fn windows_respect_stride() {
        let w = make_windows(&series(20), 4, 2, 5);
        assert_eq!(w.len(), 3);
        assert_eq!(w[1].start, 5);
    }

    #[test]
    fn short_series_yields_no_windows() {
        assert!(make_windows(&series(4), 3, 2, 1).is_empty());
    }

    #[test]
    fn source_windows_match_slice_windows() {
        // The streaming ring-buffer path is the only implementation now,
        // so pin it against a hand-rolled slice reference.
        let data = series(53);
        for (input_len, horizon, stride) in [(3, 2, 1), (4, 2, 5), (7, 3, 2), (50, 3, 1)] {
            let got = make_windows(&data, input_len, horizon, stride);
            let target = data.target().values();
            let mut want = Vec::new();
            let mut s = 0;
            while s + input_len + horizon <= data.len() {
                want.push(Window {
                    inputs: data
                        .channels()
                        .iter()
                        .map(|c| c.values()[s..s + input_len].to_vec())
                        .collect(),
                    target: target[s + input_len..s + input_len + horizon].to_vec(),
                    start: s,
                });
                s += stride;
            }
            assert_eq!(got, want, "input_len={input_len} horizon={horizon} stride={stride}");
        }
    }

    #[test]
    fn eval_windows_mix_transformed_inputs_with_raw_targets() {
        let raw = series(10);
        // transformed = raw + 100
        let transformed = raw
            .try_map_channels(|c| {
                RegularTimeSeries::new(
                    c.start(),
                    c.interval(),
                    c.values().iter().map(|v| v + 100.0).collect(),
                )
            })
            .unwrap();
        let w = make_eval_windows(&raw, &transformed, 3, 2, 1).unwrap();
        assert_eq!(w[0].inputs[0], vec![100.0, 101.0, 102.0]); // transformed x
        assert_eq!(w[0].target, vec![3.0, 4.0]); // raw y
    }

    #[test]
    fn eval_windows_length_mismatch_errors() {
        let raw = series(10);
        let other = series(9);
        assert!(make_eval_windows(&raw, &other, 3, 2, 1).is_err());
    }
}
