//! Shared scaffolding for the deep forecasters (§3.4: standard scaler on
//! inputs, input 96, horizon 24, Adam with early stopping).
//!
//! The window-batching machinery itself lives in [`crate::batch`], where it
//! is shared with the evaluation grid's batched inference path; this module
//! re-exports it so existing training-side callers keep compiling.

use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

pub(crate) use crate::batch::{make_batches, Batch, BatchSpec};
use crate::model::ForecastError;

/// Validates the training series is long enough and fits the scaler on the
/// raw training target.
pub(crate) fn prepare(
    train: &MultiSeries,
    input_len: usize,
    horizon: usize,
) -> Result<StandardScaler, ForecastError> {
    let needed = input_len + horizon + 1;
    if train.len() < needed {
        return Err(ForecastError::TooShort { needed, got: train.len() });
    }
    Ok(StandardScaler::fit_single(train.target().values()))
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
    fn too_short_rejected() {
        assert!(prepare(&uni(20), 96, 24).is_err());
    }
}
