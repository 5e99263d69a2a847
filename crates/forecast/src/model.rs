//! The common forecasting interface (paper Definition 7).
//!
//! Every model consumes the `k = 96` previous timestamps and predicts the
//! next `h = 24` (§3.4). Models are fit once on the raw training subset and
//! then queried with (possibly lossy-transformed) input windows — exactly
//! the evaluation scenario of Algorithm 1.

use neural::state::StateDict;
use neural::tensor::Tensor;
use tsdata::series::MultiSeries;

/// Errors from fitting or predicting.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// `predict` was called before `fit`.
    NotFitted,
    /// The training series is too short for the configured window/horizon.
    TooShort { needed: usize, got: usize },
    /// An input window has the wrong length or channel count.
    BadWindow { expected: usize, got: usize },
    /// A numerical routine failed (e.g. a singular normal-equation system).
    Numerical(String),
    /// A state snapshot could not be produced or applied (wrong model kind,
    /// missing or malformed entries).
    InvalidState(String),
}

impl std::fmt::Display for ForecastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForecastError::NotFitted => write!(f, "model is not fitted"),
            ForecastError::TooShort { needed, got } => {
                write!(f, "series too short: need {needed} points, got {got}")
            }
            ForecastError::BadWindow { expected, got } => {
                write!(f, "bad input window: expected length {expected}, got {got}")
            }
            ForecastError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            ForecastError::InvalidState(msg) => write!(f, "invalid model state: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

/// A trained (or trainable) forecasting model `F` (Definition 7):
/// `ŷ_{t+1..t+h} = F(x_{t-k..t})`.
pub trait Forecaster: Send {
    /// Model name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Input window length `k` the model was configured with.
    fn input_len(&self) -> usize;

    /// Forecast horizon `h`.
    fn horizon(&self) -> usize;

    /// Fits on the training subset, using the validation subset for early
    /// stopping where applicable. Models scale inputs internally (§3.4's
    /// standard scaler) and always predict in original units.
    fn fit(&mut self, train: &MultiSeries, val: &MultiSeries) -> Result<(), ForecastError>;

    /// Predicts `horizon()` future target values from one input window.
    /// `inputs[ch]` is channel `ch`'s last `input_len()` values (channel 0
    /// is the target).
    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError>;

    /// Predicts every row of `windows` (`[n, input_len]` target-channel
    /// windows) at once, returning an `[n, horizon]` matrix whose row `i`
    /// is the forecast for window `i`.
    ///
    /// The default implementation loops [`Forecaster::predict`] row by row,
    /// so external implementations keep working unchanged; the in-tree
    /// models override it with natively batched paths that produce
    /// bit-identical outputs (the per-window path stays the reference
    /// oracle — see `forecast/tests/batch_identity.rs`).
    fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
        validate_batch(windows, self.input_len())?;
        let k = self.input_len();
        let h = self.horizon();
        let mut out = Tensor::zeros(windows.rows(), h);
        for r in 0..windows.rows() {
            let row = windows.data()[r * k..(r + 1) * k].to_vec();
            let pred = self.predict(&[row])?;
            out.data_mut()[r * h..(r + 1) * h].copy_from_slice(&pred);
        }
        Ok(out)
    }

    /// Serializes the fitted state as named tensors, such that
    /// [`Forecaster::load_state`] on an identically configured model
    /// reproduces bit-identical predictions. Implementations must fail with
    /// [`ForecastError::NotFitted`] before `fit`.
    fn save_state(&self) -> Result<StateDict, ForecastError> {
        Err(ForecastError::InvalidState(format!("{} does not support state export", self.name())))
    }

    /// Restores a fitted state produced by [`Forecaster::save_state`] on an
    /// identically configured model, leaving this model fitted.
    fn load_state(&mut self, state: &StateDict) -> Result<(), ForecastError> {
        let _ = state;
        Err(ForecastError::InvalidState(format!("{} does not support state import", self.name())))
    }
}

/// Checks the batch-matrix invariant shared by every
/// [`Forecaster::predict_batch`] implementation: each row is one window of
/// the target channel, so the column count must equal `input_len`.
pub(crate) fn validate_batch(windows: &Tensor, input_len: usize) -> Result<(), ForecastError> {
    if windows.cols() != input_len {
        return Err(ForecastError::BadWindow { expected: input_len, got: windows.cols() });
    }
    Ok(())
}

/// Checks the standard window invariants shared by all implementations.
pub(crate) fn validate_window(inputs: &[Vec<f64>], input_len: usize) -> Result<(), ForecastError> {
    if inputs.is_empty() {
        return Err(ForecastError::BadWindow { expected: input_len, got: 0 });
    }
    for ch in inputs {
        if ch.len() != input_len {
            return Err(ForecastError::BadWindow { expected: input_len, got: ch.len() });
        }
    }
    Ok(())
}

/// The seven models in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ARIMA with Fourier terms.
    Arima,
    /// Gradient boosting over regression trees.
    GBoost,
    /// Decomposition-linear network.
    DLinear,
    /// Encoder-decoder gated recurrent network.
    Gru,
    /// Informer (ProbSparse Transformer).
    Informer,
    /// NBeats residual MLP stacks.
    NBeats,
    /// Vanilla encoder-decoder Transformer.
    Transformer,
}

/// All models, in the paper's Table 2 order.
pub const ALL_MODELS: [ModelKind; 7] = [
    ModelKind::Arima,
    ModelKind::GBoost,
    ModelKind::DLinear,
    ModelKind::Gru,
    ModelKind::Informer,
    ModelKind::NBeats,
    ModelKind::Transformer,
];

impl ModelKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Arima => "Arima",
            ModelKind::GBoost => "GBoost",
            ModelKind::DLinear => "DLinear",
            ModelKind::Gru => "GRU",
            ModelKind::Informer => "Informer",
            ModelKind::NBeats => "NBeats",
            ModelKind::Transformer => "Transformer",
        }
    }

    /// Whether the model is a deep neural network (run with 10 seeds in the
    /// paper; simpler models use 5).
    pub fn is_deep(self) -> bool {
        !matches!(self, ModelKind::Arima | ModelKind::GBoost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_validation() {
        assert!(validate_window(&[vec![1.0; 96]], 96).is_ok());
        assert!(validate_window(&[], 96).is_err());
        assert!(validate_window(&[vec![1.0; 95]], 96).is_err());
        assert!(validate_window(&[vec![1.0; 96], vec![2.0; 10]], 96).is_err());
    }

    #[test]
    fn model_names_and_depth() {
        assert_eq!(ModelKind::Arima.name(), "Arima");
        assert_eq!(ALL_MODELS.len(), 7);
        assert!(!ModelKind::Arima.is_deep());
        assert!(!ModelKind::GBoost.is_deep());
        assert!(ModelKind::Transformer.is_deep());
        assert!(ModelKind::DLinear.is_deep());
    }
}
