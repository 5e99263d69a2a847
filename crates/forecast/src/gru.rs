//! Encoder-decoder GRU forecaster (§3.4: "an encoder-decoder Gated
//! Recurrent Neural Network").
//!
//! The encoder consumes the scaled input window one value per step; the
//! decoder starts from the encoder's final state and unrolls the horizon
//! autoregressively, feeding each prediction back as the next input.

use neural::graph::{Graph, NodeId, ParamStore};
use neural::layers::{Activation, Dense, Dropout};
use neural::rnn::GruCell;
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

/// GRU forecaster configuration.
#[derive(Debug, Clone)]
pub(crate) struct GruConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Hidden state width (shared by encoder and decoder).
    pub hidden: usize,
    /// Dropout on the decoder state before the output head.
    pub dropout: f64,
    /// Batching limits.
    pub batches: BatchSpec,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for GruConfig {
    fn default() -> Self {
        GruConfig {
            input_len: 96,
            horizon: 24,
            hidden: 32,
            dropout: 0.0,
            batches: BatchSpec::default(),
            train: TrainConfig::default(),
        }
    }
}

struct Net {
    encoder: GruCell,
    decoder: GruCell,
    head: Dense,
}

/// The GRU forecaster.
pub(crate) struct Gru {
    config: GruConfig,
    store: ParamStore,
    net: Option<Net>,
    scaler: Option<StandardScaler>,
}

impl Gru {
    /// Creates an unfitted model.
    pub(crate) fn new(config: GruConfig) -> Self {
        Gru { config, store: ParamStore::new(), net: None, scaler: None }
    }

    /// Builds the seeded network structure. Shared by `fit` and
    /// `load_state` so a restored model has the exact architecture the fit
    /// produced.
    fn build_net(&self) -> (ParamStore, Net) {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut store = ParamStore::new();
        let net = Net {
            encoder: GruCell::new(&mut store, "enc", 1, self.config.hidden, &mut rng),
            decoder: GruCell::new(&mut store, "dec", 1, self.config.hidden, &mut rng),
            head: Dense::new(
                &mut store,
                "head",
                self.config.hidden,
                1,
                Activation::Identity,
                &mut rng,
            ),
        };
        (store, net)
    }

    /// Builds the forward pass for a batch of scaled windows `x
    /// [n, input_len]`, returning predictions `[n, horizon]`.
    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        net: &Net,
        x: &Tensor,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let (n, k) = x.shape();
        let dropout = Dropout::new(self.config.dropout);
        // One tiled transpose up front makes every timestep's column a
        // contiguous row instead of k strided gathers.
        let x_t = x.transpose(); // [k, n]
                                 // Encoder: one scalar feature per step.
                                 // Parameter nodes hoisted out of both time loops: one copy of each
                                 // cell's weights per graph instead of one per step.
        let enc_params = net.encoder.param_nodes(g, store);
        let dec_params = net.decoder.param_nodes(g, store);
        let mut h = g.input(Tensor::zeros(n, self.config.hidden));
        for t in 0..k {
            let xt = g.input(Tensor::col(&x_t.data()[t * n..(t + 1) * n]));
            h = net.encoder.step_with(g, &enc_params, xt, h);
        }
        // Decoder: autoregressive unroll from the last observed value.
        let mut prev = g.input(Tensor::col(&x_t.data()[(k - 1) * n..k * n]));
        let mut outputs: Option<NodeId> = None;
        for _ in 0..self.config.horizon {
            h = net.decoder.step_with(g, &dec_params, prev, h);
            let hd = dropout.forward(g, h, training, rng);
            let y = net.head.forward(g, store, hd); // [n, 1]
            prev = y;
            outputs = Some(match outputs {
                None => y,
                Some(o) => g.hstack(o, y),
            });
        }
        outputs.expect("horizon > 0")
    }
}

impl Forecaster for Gru {
    fn name(&self) -> &'static str {
        "GRU"
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train_data: &MultiSeries, val: &MultiSeries) -> Result<(), ForecastError> {
        let scaler = prepare(train_data, self.config.input_len, self.config.horizon)?;
        let train_b: Vec<Batch> = make_batches(
            train_data,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );
        if train_b.is_empty() {
            return Err(ForecastError::TooShort {
                needed: self.config.input_len + self.config.horizon,
                got: train_data.len(),
            });
        }
        let val_b = make_batches(
            val,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );

        let (mut store, net) = self.build_net();

        let this = &*self;
        train(
            &mut store,
            this.config.train,
            train_b.len(),
            val_b.len(),
            |g, s, b, training, rng| {
                let batch = if training { &train_b[b] } else { &val_b[b] };
                let pred = this.forward(g, s, &net, &batch.x, training, rng);
                g.mse(pred, &batch.y)
            },
        );

        self.store = store;
        self.net = Some(net);
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let (Some(net), Some(scaler)) = (&self.net, &self.scaler) else {
            return Err(ForecastError::NotFitted);
        };
        validate_window(inputs, self.config.input_len)?;
        let x = scaler.transform(0, &inputs[0]);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let pred = self.forward(&mut g, &self.store, net, &Tensor::row(&x), false, &mut rng);
        Ok(scaler.inverse(0, g.value(pred).data()))
    }

    fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
        let (Some(net), Some(scaler)) = (&self.net, &self.scaler) else {
            return Err(ForecastError::NotFitted);
        };
        validate_batch(windows, self.config.input_len)?;
        if windows.rows() == 0 {
            return Ok(Tensor::zeros(0, self.config.horizon));
        }
        // `forward` already steps whole [n, hidden] state matrices, so the
        // batched path is simply the training-shaped forward at inference:
        // every GRU matmul contracts over <=hidden dims, which keeps each
        // row bitwise equal to its single-window run.
        let x = scale_rows(windows, scaler);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let pred = self.forward(&mut g, &self.store, net, &x, false, &mut rng);
        Ok(inverse_rows(g.value(pred), scaler))
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        if self.net.is_none() {
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
        let (mut store, net) = self.build_net();
        stateio::check_len(state, store.len() + 3)?;
        stateio::get_params(&mut store, state)?;
        self.store = store;
        self.net = Some(net);
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

    fn small_config() -> GruConfig {
        GruConfig {
            input_len: 24,
            horizon: 6,
            hidden: 12,
            batches: BatchSpec { stride: 4, batch_size: 16, max_windows: 300 },
            train: TrainConfig { max_epochs: 25, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn learns_seasonal_series() {
        let n = 1000;
        let data: Vec<f64> =
            (0..n).map(|i| 3.0 + (i as f64 / 12.0 * std::f64::consts::TAU).sin()).collect();
        let (tr, rest) = data.split_at(750);
        let (va, te) = rest.split_at(125);
        let mut model = Gru::new(small_config());
        model.fit(&uni(tr.to_vec()), &uni(va.to_vec())).unwrap();
        let pred = model.predict(&[te[..24].to_vec()]).unwrap();
        let rmse = tsdata::metrics::rmse(&te[24..30], &pred);
        assert!(rmse < 0.7, "rmse {rmse}");
    }

    #[test]
    fn output_has_horizon_length() {
        let data: Vec<f64> = (0..500).map(|i| (i % 7) as f64).collect();
        let mut m = Gru::new(GruConfig {
            train: TrainConfig { max_epochs: 1, ..Default::default() },
            ..small_config()
        });
        m.fit(&uni(data[..350].to_vec()), &uni(data[350..430].to_vec())).unwrap();
        let pred = m.predict(&[data[430..454].to_vec()]).unwrap();
        assert_eq!(pred.len(), 6);
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = Gru::new(small_config());
        assert_eq!(m.predict(&[vec![0.0; 24]]).unwrap_err(), ForecastError::NotFitted);
    }
}
