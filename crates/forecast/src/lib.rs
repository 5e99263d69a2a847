//! # forecast — the paper's seven forecasting models
//!
//! All models implement [`model::Forecaster`] (fit on raw training data,
//! predict `horizon` values from a `input_len`-point window):
//!
//! | Paper name | Module | Substrate |
//! |---|---|---|
//! | Arima | `arima` | Hannan–Rissanen + AIC + Fourier terms |
//! | GBoost | [`gboost`] | CART trees ([`tree`]) + gradient boosting |
//! | DLinear | [`dlinear`] | moving-average decomposition + linear heads |
//! | GRU | `gru` | encoder-decoder GRU (`neural::rnn`) |
//! | NBeats | `nbeats` | residual MLP stacks |
//! | Transformer | `transformer` | full attention `seq2seq` |
//! | Informer | `informer` | ProbSparse attention `seq2seq` |
//!
//! [`build_model`] constructs any of them from a [`model::ModelKind`] with
//! either laptop-scale (`Profile::Fast`) or paper-scale (`Profile::Paper`)
//! hyperparameters.

mod arima;
pub mod batch;
mod deep;
pub mod dlinear;
pub mod gboost;
mod gru;
mod informer;
pub mod linalg;
pub mod model;
mod nbeats;
mod seq2seq;
mod stateio;
mod transformer;
pub mod tree;

pub use model::{ForecastError, Forecaster, ModelKind, ALL_MODELS};
pub use neural::state::StateDict;

use neural::train::TrainConfig;

use arima::{Arima, ArimaConfig};
use deep::BatchSpec;
use dlinear::{DLinear, DLinearConfig};
use gboost::{GBoost, GBoostConfig, GbmConfig};
use gru::{Gru, GruConfig};
use seq2seq::Seq2SeqConfig;

/// Model size / compute profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small widths and few epochs — the repro default; qualitative
    /// behaviour (relative resilience to compression) is preserved.
    Fast,
    /// Paper-scale widths and training budgets.
    Paper,
}

/// Common build options for [`build_model`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Input window length `k` (paper: 96).
    pub input_len: usize,
    /// Forecast horizon `h` (paper: 24).
    pub horizon: usize,
    /// Seasonal period in samples (used by Arima's Fourier terms).
    pub season: Option<usize>,
    /// Random seed (initialization + shuffling).
    pub seed: u64,
    /// Size profile.
    pub profile: Profile,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { input_len: 96, horizon: 24, season: None, seed: 42, profile: Profile::Fast }
    }
}

/// Constructs a forecaster of the given kind.
pub fn build_model(kind: ModelKind, opts: BuildOptions) -> Box<dyn Forecaster> {
    let paper = opts.profile == Profile::Paper;
    let train = TrainConfig {
        max_epochs: if paper { 40 } else { 8 },
        patience: 3,
        seed: opts.seed,
        model: kind.name(),
        ..Default::default()
    };
    let batches = if paper {
        // Stride 2 halves the (heavily overlapping) window count; the cap
        // keeps the slowest models (per-sample attention) in CPU-hours.
        BatchSpec { stride: 2, batch_size: 32, max_windows: 8_000 }
    } else {
        BatchSpec::default()
    };
    match kind {
        ModelKind::Arima => Box::new(Arima::new(ArimaConfig {
            input_len: opts.input_len,
            horizon: opts.horizon,
            season: opts.season,
            max_train: if paper { 20_000 } else { 4_000 },
            ..Default::default()
        })),
        ModelKind::GBoost => Box::new(GBoost::new(GBoostConfig {
            input_len: opts.input_len,
            horizon: opts.horizon,
            gbm: GbmConfig {
                n_estimators: if paper { 200 } else { 60 },
                seed: opts.seed,
                subsample: 0.8,
                ..Default::default()
            },
            stride: if paper { 1 } else { 3 },
            max_windows: if paper { 20_000 } else { 3_000 },
        })),
        ModelKind::DLinear => Box::new(DLinear::new(DLinearConfig {
            input_len: opts.input_len,
            horizon: opts.horizon,
            batches,
            train: TrainConfig { max_epochs: if paper { 60 } else { 25 }, ..train },
            ..Default::default()
        })),
        ModelKind::Gru => Box::new(Gru::new(GruConfig {
            input_len: opts.input_len,
            horizon: opts.horizon,
            hidden: if paper { 64 } else { 16 },
            batches,
            train,
            ..Default::default()
        })),
        ModelKind::NBeats => Box::new(nbeats::NBeats::new(nbeats::NBeatsConfig {
            input_len: opts.input_len,
            horizon: opts.horizon,
            blocks: if paper { 6 } else { 2 },
            width: if paper { 128 } else { 32 },
            batches,
            train: TrainConfig { max_epochs: if paper { 40 } else { 15 }, ..train },
            ..Default::default()
        })),
        ModelKind::Transformer => {
            let base = Seq2SeqConfig::transformer();
            Box::new(transformer::transformer(Seq2SeqConfig {
                input_len: opts.input_len,
                horizon: opts.horizon,
                label_len: (opts.horizon).min(opts.input_len),
                d_model: if paper { 32 } else { 16 },
                train,
                ..base
            }))
        }
        ModelKind::Informer => {
            let base = Seq2SeqConfig::informer();
            Box::new(informer::informer(Seq2SeqConfig {
                input_len: opts.input_len,
                horizon: opts.horizon,
                label_len: (opts.horizon).min(opts.input_len),
                d_model: if paper { 32 } else { 16 },
                train,
                ..base
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_all_models() {
        for kind in ALL_MODELS {
            let m = build_model(kind, BuildOptions::default());
            assert_eq!(m.name(), kind.name());
            assert_eq!(m.input_len(), 96);
            assert_eq!(m.horizon(), 24);
        }
    }

    #[test]
    fn factory_respects_window_options() {
        let m = build_model(
            ModelKind::DLinear,
            BuildOptions { input_len: 48, horizon: 12, ..Default::default() },
        );
        assert_eq!(m.input_len(), 48);
        assert_eq!(m.horizon(), 12);
    }
}
