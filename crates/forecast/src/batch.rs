//! Window batching shared by deep-model *training* and grid *evaluation*.
//!
//! Historically this machinery lived inside `crate::deep` and only fed
//! the training loops; the batched inference path (DESIGN.md §13) stages
//! evaluation windows through the same `BatchSpec`/`make_batches`
//! helpers so the two paths cannot drift. [`stage_windows`] is the
//! evaluation-side entry point: it stacks raw (unscaled) window rows into
//! the `[n, input_len]` matrices [`crate::model::Forecaster::predict_batch`]
//! consumes.

use neural::tensor::Tensor;
use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;
use tsdata::split::{make_windows, Window};

/// One training batch: inputs `[batch, input_len]` and targets
/// `[batch, horizon]`, both in scaled units (target channel only).
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// Scaled input windows.
    pub x: Tensor,
    /// Scaled target horizons.
    pub y: Tensor,
}

/// Batching limits for deep-model training.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchSpec {
    /// Window stride over the training series.
    pub stride: usize,
    /// Samples per batch.
    pub batch_size: usize,
    /// Cap on total windows (most recent kept).
    pub max_windows: usize,
}

impl Default for BatchSpec {
    fn default() -> Self {
        BatchSpec { stride: 4, batch_size: 16, max_windows: 1200 }
    }
}

/// Builds scaled batches from a series' target channel.
pub(crate) fn make_batches(
    data: &MultiSeries,
    scaler: &StandardScaler,
    input_len: usize,
    horizon: usize,
    spec: BatchSpec,
) -> Vec<Batch> {
    let mut windows = make_windows(data, input_len, horizon, spec.stride);
    if windows.len() > spec.max_windows {
        windows = windows.split_off(windows.len() - spec.max_windows);
    }
    windows
        .chunks(spec.batch_size)
        .map(|chunk| {
            let n = chunk.len();
            let mut x = Tensor::zeros(n, input_len);
            let mut y = Tensor::zeros(n, horizon);
            for (r, w) in chunk.iter().enumerate() {
                let xi = scaler.transform(0, &w.inputs[0]);
                let yi = scaler.transform(0, &w.target);
                x.data_mut()[r * input_len..(r + 1) * input_len].copy_from_slice(&xi);
                y.data_mut()[r * horizon..(r + 1) * horizon].copy_from_slice(&yi);
            }
            Batch { x, y }
        })
        .collect()
}

/// Stacks evaluation windows' target channel into an `[n, input_len]`
/// matrix (raw units — models scale internally, exactly as
/// [`crate::model::Forecaster::predict`] does).
///
/// # Panics
/// Panics if any window's target channel is not `input_len` long; the
/// windower guarantees this by construction.
pub fn stage_windows(windows: &[Window], input_len: usize) -> Tensor {
    let mut x = Tensor::zeros(windows.len(), input_len);
    for (r, w) in windows.iter().enumerate() {
        x.data_mut()[r * input_len..(r + 1) * input_len].copy_from_slice(&w.inputs[0]);
    }
    x
}

/// Applies the target-channel scaler to every row of a window matrix —
/// the batched equivalent of the `scaler.transform(0, window)` each
/// per-window `predict` performs, bit-identical row for row.
pub(crate) fn scale_rows(windows: &Tensor, scaler: &StandardScaler) -> Tensor {
    let (n, k) = windows.shape();
    let mut out = Tensor::zeros(n, k);
    for r in 0..n {
        let xi = scaler.transform(0, &windows.data()[r * k..(r + 1) * k]);
        out.data_mut()[r * k..(r + 1) * k].copy_from_slice(&xi);
    }
    out
}

/// Inverse-scales every row of a scaled prediction matrix back to
/// original units (the batched equivalent of `scaler.inverse(0, pred)`).
pub(crate) fn inverse_rows(pred: &Tensor, scaler: &StandardScaler) -> Tensor {
    let (n, h) = pred.shape();
    let mut out = Tensor::zeros(n, h);
    for r in 0..n {
        let yi = scaler.inverse(0, &pred.data()[r * h..(r + 1) * h]);
        out.data_mut()[r * h..(r + 1) * h].copy_from_slice(&yi);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::series::RegularTimeSeries;

    fn uni(n: usize) -> MultiSeries {
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        MultiSeries::univariate("y", RegularTimeSeries::new(0, 60, vals).unwrap())
    }

    #[test]
    fn batches_have_scaled_values() {
        let data = uni(200);
        let scaler = crate::deep::prepare(&data, 24, 8).unwrap();
        let spec = BatchSpec { stride: 8, batch_size: 4, max_windows: 100 };
        let batches = make_batches(&data, &scaler, 24, 8, spec);
        assert!(!batches.is_empty());
        let b = &batches[0];
        assert_eq!(b.x.shape().1, 24);
        assert_eq!(b.y.shape().1, 8);
        // Scaled data of a 0..200 ramp lies within ~[-2, 2].
        assert!(b.x.data().iter().all(|v| v.abs() < 2.5));
        // Target continues the input: scaled(y[0]) follows scaled(x[last]).
        assert!(b.y.get(0, 0) > b.x.get(0, 23));
    }

    #[test]
    fn max_windows_keeps_most_recent() {
        let data = uni(500);
        let scaler = crate::deep::prepare(&data, 10, 2).unwrap();
        let spec = BatchSpec { stride: 1, batch_size: 100, max_windows: 50 };
        let batches = make_batches(&data, &scaler, 10, 2, spec);
        let total: usize = batches.iter().map(|b| b.x.rows()).sum();
        assert_eq!(total, 50);
        // Most recent windows have the largest values.
        let last_batch = batches.last().expect("non-empty");
        assert!(last_batch.x.get(last_batch.x.rows() - 1, 9) > 1.0);
    }

    #[test]
    fn staged_windows_keep_raw_values_and_order() {
        let data = uni(40);
        let windows = make_windows(&data, 6, 2, 3);
        let x = stage_windows(&windows, 6);
        assert_eq!(x.shape(), (windows.len(), 6));
        for (r, w) in windows.iter().enumerate() {
            assert_eq!(&x.data()[r * 6..(r + 1) * 6], w.inputs[0].as_slice());
        }
        // Empty input stages to an empty matrix, not a panic.
        assert_eq!(stage_windows(&[], 6).shape(), (0, 6));
    }

    #[test]
    fn row_scaling_matches_per_window_scaler_calls() {
        let scaler = StandardScaler::fit_single(&[1.0, 4.0, 7.0, 2.0, 9.0]);
        let x = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, -4.0, 0.5, 8.0]);
        let scaled = scale_rows(&x, &scaler);
        for r in 0..2 {
            let want = scaler.transform(0, &x.data()[r * 3..(r + 1) * 3]);
            assert_eq!(&scaled.data()[r * 3..(r + 1) * 3], want.as_slice());
        }
        let back = inverse_rows(&scaled, &scaler);
        for (a, b) in back.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
