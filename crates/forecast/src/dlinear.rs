//! DLinear (Zeng et al., AAAI 2023): decompose the input window into trend
//! (moving average) and remainder, apply one linear layer per component,
//! and sum the two forecasts. The paper highlights DLinear's sensitivity to
//! compression-induced distortion of the *remainder* component (§4.4.1);
//! this implementation exposes the same decomposition for that analysis.

use neural::graph::ParamStore;
use neural::layers::{Activation, Dense};
use neural::tensor::Tensor;
use neural::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

use crate::batch::{inverse_rows, scale_rows};
use crate::deep::{make_batches, prepare, Batch, BatchSpec};
use crate::model::{validate_batch, validate_window, ForecastError, Forecaster};
use crate::stateio;

/// DLinear configuration.
#[derive(Debug, Clone)]
pub(crate) struct DLinearConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Moving-average kernel of the trend decomposition (paper default 25).
    pub kernel: usize,
    /// Batching limits.
    pub batches: BatchSpec,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for DLinearConfig {
    fn default() -> Self {
        DLinearConfig {
            input_len: 96,
            horizon: 24,
            kernel: 25,
            batches: BatchSpec::default(),
            train: TrainConfig::default(),
        }
    }
}

/// Moving-average decomposition of one window: returns `(trend, remainder)`.
/// The window is edge-padded so the trend has the same length, exactly as
/// DLinear's `series_decomp` does.
pub fn decompose(window: &[f64], kernel: usize) -> (Vec<f64>, Vec<f64>) {
    let n = window.len();
    let k = kernel.max(1).min(2 * n);
    let half_front = (k - 1) / 2;
    let half_back = k / 2;
    let mut padded = Vec::with_capacity(n + k);
    padded.extend(std::iter::repeat_n(window[0], half_front));
    padded.extend_from_slice(window);
    padded.extend(std::iter::repeat_n(window[n - 1], half_back));
    let mut trend = Vec::with_capacity(n);
    let mut sum: f64 = padded[..k].iter().sum();
    trend.push(sum / k as f64);
    for t in 1..n {
        sum += padded[t + k - 1] - padded[t - 1];
        trend.push(sum / k as f64);
    }
    let remainder: Vec<f64> = window.iter().zip(&trend).map(|(v, t)| v - t).collect();
    (trend, remainder)
}

/// Row-wise [`decompose`] over a whole batch of windows.
fn decompose_batch(x: &Tensor, kernel: usize) -> (Tensor, Tensor) {
    let (n, k) = x.shape();
    let mut trend = Tensor::zeros(n, k);
    let mut rem = Tensor::zeros(n, k);
    for r in 0..n {
        let row = &x.data()[r * k..(r + 1) * k];
        let (t, m) = decompose(row, kernel);
        trend.data_mut()[r * k..(r + 1) * k].copy_from_slice(&t);
        rem.data_mut()[r * k..(r + 1) * k].copy_from_slice(&m);
    }
    (trend, rem)
}

/// The DLinear forecaster.
pub(crate) struct DLinear {
    config: DLinearConfig,
    store: ParamStore,
    trend_layer: Option<Dense>,
    remainder_layer: Option<Dense>,
    scaler: Option<StandardScaler>,
}

impl DLinear {
    /// Creates an unfitted model.
    pub(crate) fn new(config: DLinearConfig) -> Self {
        DLinear {
            config,
            store: ParamStore::new(),
            trend_layer: None,
            remainder_layer: None,
            scaler: None,
        }
    }

    /// Builds the seeded layer structure. Shared by `fit` and `load_state`
    /// so a restored model has the exact architecture the fit produced.
    fn build_layers(&self) -> (ParamStore, Dense, Dense) {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut store = ParamStore::new();
        let trend_layer = Dense::new(
            &mut store,
            "trend",
            self.config.input_len,
            self.config.horizon,
            Activation::Identity,
            &mut rng,
        );
        let remainder_layer = Dense::new(
            &mut store,
            "remainder",
            self.config.input_len,
            self.config.horizon,
            Activation::Identity,
            &mut rng,
        );
        (store, trend_layer, remainder_layer)
    }
}

impl Forecaster for DLinear {
    fn name(&self) -> &'static str {
        "DLinear"
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train_data: &MultiSeries, val: &MultiSeries) -> Result<(), ForecastError> {
        let scaler = prepare(train_data, self.config.input_len, self.config.horizon)?;
        let train_batches = make_batches(
            train_data,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );
        if train_batches.is_empty() {
            return Err(ForecastError::TooShort {
                needed: self.config.input_len + self.config.horizon,
                got: train_data.len(),
            });
        }
        let val_batches = make_batches(
            val,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );

        let (mut store, trend_layer, remainder_layer) = self.build_layers();

        let decompose_all = |batches: &[Batch]| -> Vec<(Tensor, Tensor, Tensor)> {
            batches
                .iter()
                .map(|b| {
                    let (t, m) = decompose_batch(&b.x, self.config.kernel);
                    (t, m, b.y.clone())
                })
                .collect()
        };
        let train_dec = decompose_all(&train_batches);
        let val_dec = decompose_all(&val_batches);

        train(
            &mut store,
            self.config.train,
            train_dec.len(),
            val_dec.len(),
            |g, s, b, training, _rng| {
                let (t, m, y) = if training { &train_dec[b] } else { &val_dec[b] };
                let ti = g.input(t.clone());
                let mi = g.input(m.clone());
                let ft = trend_layer.forward(g, s, ti);
                let fm = remainder_layer.forward(g, s, mi);
                let pred = g.add(ft, fm);
                g.mse(pred, y)
            },
        );

        self.store = store;
        self.trend_layer = Some(trend_layer);
        self.remainder_layer = Some(remainder_layer);
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let (Some(tl), Some(ml), Some(scaler)) =
            (&self.trend_layer, &self.remainder_layer, &self.scaler)
        else {
            return Err(ForecastError::NotFitted);
        };
        validate_window(inputs, self.config.input_len)?;
        let x = scaler.transform(0, &inputs[0]);
        let xt = Tensor::row(&x);
        let (trend, rem) = decompose_batch(&xt, self.config.kernel);
        let mut g = neural::graph::Graph::new();
        let ti = g.input(trend);
        let mi = g.input(rem);
        let ft = tl.forward(&mut g, &self.store, ti);
        let fm = ml.forward(&mut g, &self.store, mi);
        let pred = g.add(ft, fm);
        Ok(scaler.inverse(0, g.value(pred).data()))
    }

    fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
        let (Some(tl), Some(ml), Some(scaler)) =
            (&self.trend_layer, &self.remainder_layer, &self.scaler)
        else {
            return Err(ForecastError::NotFitted);
        };
        validate_batch(windows, self.config.input_len)?;
        if windows.rows() == 0 {
            return Ok(Tensor::zeros(0, self.config.horizon));
        }
        let x = scale_rows(windows, scaler);
        let (trend, rem) = decompose_batch(&x, self.config.kernel);
        let mut g = neural::graph::Graph::new();
        let ti = g.input(trend);
        let mi = g.input(rem);
        let ft = tl.forward(&mut g, &self.store, ti);
        let fm = ml.forward(&mut g, &self.store, mi);
        let pred = g.add(ft, fm);
        Ok(inverse_rows(g.value(pred), scaler))
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        if self.trend_layer.is_none() {
            return Err(ForecastError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        let mut dict = neural::state::StateDict::new();
        stateio::put_tag(&mut dict, self.name());
        stateio::put_scaler(&mut dict, "scaler", scaler);
        stateio::put_params(&mut dict, &self.store);
        Ok(dict)
    }

    fn load_state(&mut self, state: &neural::state::StateDict) -> Result<(), ForecastError> {
        stateio::check_tag(state, self.name())?;
        let scaler = stateio::get_scaler(state, "scaler")?;
        let (mut store, trend_layer, remainder_layer) = self.build_layers();
        stateio::check_len(state, store.len() + 3)?;
        stateio::get_params(&mut store, state)?;
        self.store = store;
        self.trend_layer = Some(trend_layer);
        self.remainder_layer = Some(remainder_layer);
        self.scaler = Some(scaler);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::series::RegularTimeSeries;

    fn uni(values: Vec<f64>) -> MultiSeries {
        MultiSeries::univariate("y", RegularTimeSeries::new(0, 900, values).unwrap())
    }

    #[test]
    fn decompose_flat_line() {
        let (t, r) = decompose(&[5.0; 10], 5);
        assert!(t.iter().all(|&v| (v - 5.0).abs() < 1e-12));
        assert!(r.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn decompose_separates_trend_and_oscillation() {
        // Linear trend + fast oscillation: the MA should capture the trend.
        let window: Vec<f64> =
            (0..100).map(|i| i as f64 * 0.1 + if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let (trend, rem) = decompose(&window, 11);
        // Away from the edges, trend ≈ linear ramp and remainder ≈ ±1.
        for i in 20..80 {
            assert!((trend[i] - i as f64 * 0.1).abs() < 0.15, "trend[{i}]={}", trend[i]);
            assert!((rem[i].abs() - 1.0).abs() < 0.15, "rem[{i}]={}", rem[i]);
        }
    }

    #[test]
    fn decompose_sum_reconstructs() {
        let window: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin() * 3.0).collect();
        let (t, r) = decompose(&window, 25);
        for i in 0..50 {
            assert!((t[i] + r[i] - window[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn learns_seasonal_series() {
        let n = 1200;
        let data: Vec<f64> =
            (0..n).map(|i| 10.0 + 3.0 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()).collect();
        let (tr, rest) = data.split_at(900);
        let (va, te) = rest.split_at(150);
        let mut model = DLinear::new(DLinearConfig {
            input_len: 48,
            horizon: 12,
            train: TrainConfig { max_epochs: 40, ..Default::default() },
            ..Default::default()
        });
        model.fit(&uni(tr.to_vec()), &uni(va.to_vec())).unwrap();
        let window = te[..48].to_vec();
        let actual = &te[48..60];
        let pred = model.predict(&[window]).unwrap();
        let rmse = tsdata::metrics::rmse(actual, &pred);
        assert!(rmse < 1.0, "rmse {rmse}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = DLinear::new(DLinearConfig::default());
        assert_eq!(m.predict(&[vec![0.0; 96]]).unwrap_err(), ForecastError::NotFitted);
    }

    #[test]
    fn seeded_training_is_deterministic() {
        let data: Vec<f64> = (0..600).map(|i| (i as f64 * 0.2).sin()).collect();
        let run = || {
            let mut m = DLinear::new(DLinearConfig {
                input_len: 24,
                horizon: 6,
                train: TrainConfig { max_epochs: 3, ..Default::default() },
                ..Default::default()
            });
            m.fit(&uni(data[..400].to_vec()), &uni(data[400..500].to_vec())).unwrap();
            m.predict(&[data[500..524].to_vec()]).unwrap()
        };
        assert_eq!(run(), run());
    }
}
