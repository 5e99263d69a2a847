//! NBeats (Oreshkin et al., ICLR 2020): stacks of fully connected blocks
//! with backward (backcast) and forward (forecast) residual links. Each
//! block reads the current residual input, emits a backcast that is
//! subtracted from the residual, and a partial forecast that is added to
//! the running total.

use neural::graph::{Graph, NodeId, ParamStore};
use neural::layers::{Activation, Dense, Dropout};
use neural::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

use crate::batch::{inverse_rows, scale_rows};
use crate::deep::{make_batches, prepare, BatchSpec};
use crate::model::{validate_batch, validate_window, ForecastError, Forecaster};
use crate::stateio;

/// NBeats configuration (generic architecture).
#[derive(Debug, Clone)]
pub(crate) struct NBeatsConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Number of blocks (stacked with residual links).
    pub blocks: usize,
    /// Hidden width of each block's FC layers.
    pub width: usize,
    /// FC layers per block before the theta projections.
    pub layers_per_block: usize,
    /// Dropout probability inside blocks.
    pub dropout: f64,
    /// Batching limits.
    pub batches: BatchSpec,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for NBeatsConfig {
    fn default() -> Self {
        NBeatsConfig {
            input_len: 96,
            horizon: 24,
            blocks: 3,
            width: 64,
            layers_per_block: 2,
            dropout: 0.0,
            batches: BatchSpec::default(),
            train: TrainConfig::default(),
        }
    }
}

struct Block {
    fc: Vec<Dense>,
    backcast: Dense,
    forecast: Dense,
}

impl Block {
    fn new(store: &mut ParamStore, name: &str, cfg: &NBeatsConfig, rng: &mut StdRng) -> Self {
        let mut fc = Vec::with_capacity(cfg.layers_per_block);
        let mut in_dim = cfg.input_len;
        for l in 0..cfg.layers_per_block {
            fc.push(Dense::new(
                store,
                &format!("{name}.fc{l}"),
                in_dim,
                cfg.width,
                Activation::Relu,
                rng,
            ));
            in_dim = cfg.width;
        }
        let backcast = Dense::new(
            store,
            &format!("{name}.backcast"),
            cfg.width,
            cfg.input_len,
            Activation::Identity,
            rng,
        );
        let forecast = Dense::new(
            store,
            &format!("{name}.forecast"),
            cfg.width,
            cfg.horizon,
            Activation::Identity,
            rng,
        );
        Block { fc, backcast, forecast }
    }

    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        dropout: &Dropout,
        training: bool,
        rng: &mut StdRng,
    ) -> (NodeId, NodeId) {
        let mut h = x;
        for layer in &self.fc {
            h = layer.forward(g, store, h);
            h = dropout.forward(g, h, training, rng);
        }
        (self.backcast.forward(g, store, h), self.forecast.forward(g, store, h))
    }
}

/// The NBeats forecaster.
pub(crate) struct NBeats {
    config: NBeatsConfig,
    store: ParamStore,
    blocks: Vec<Block>,
    scaler: Option<StandardScaler>,
}

impl NBeats {
    /// Creates an unfitted model.
    pub(crate) fn new(config: NBeatsConfig) -> Self {
        NBeats { config, store: ParamStore::new(), blocks: Vec::new(), scaler: None }
    }

    /// Builds the seeded block stack. Shared by `fit` and `load_state` so a
    /// restored model has the exact architecture the fit produced.
    fn build_blocks(&self) -> (ParamStore, Vec<Block>) {
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut store = ParamStore::new();
        let blocks: Vec<Block> = (0..self.config.blocks)
            .map(|b| Block::new(&mut store, &format!("block{b}"), &self.config, &mut rng))
            .collect();
        (store, blocks)
    }

    fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        blocks: &[Block],
        x: NodeId,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let dropout = Dropout::new(self.config.dropout);
        let mut residual = x;
        let mut total: Option<NodeId> = None;
        for block in blocks {
            let (back, fore) = block.forward(g, store, residual, &dropout, training, rng);
            residual = g.sub(residual, back);
            total = Some(match total {
                None => fore,
                Some(t) => g.add(t, fore),
            });
        }
        total.expect("at least one block")
    }
}

impl Forecaster for NBeats {
    fn name(&self) -> &'static str {
        "NBeats"
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train_data: &MultiSeries, val: &MultiSeries) -> Result<(), ForecastError> {
        let scaler = prepare(train_data, self.config.input_len, self.config.horizon)?;
        let train_b = make_batches(
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

        let (mut store, blocks) = self.build_blocks();

        // Borrow pieces locally so the closure doesn't capture `self`.
        let this = &*self;
        train(
            &mut store,
            this.config.train,
            train_b.len(),
            val_b.len(),
            |g, s, b, training, rng| {
                let batch = if training { &train_b[b] } else { &val_b[b] };
                let x = g.input(batch.x.clone());
                let pred = this.forward(g, s, &blocks, x, training, rng);
                g.mse(pred, &batch.y)
            },
        );

        self.store = store;
        self.blocks = blocks;
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_window(inputs, self.config.input_len)?;
        let x = scaler.transform(0, &inputs[0]);
        let mut g = Graph::new();
        let xi = g.input(neural::tensor::Tensor::row(&x));
        let mut rng = StdRng::seed_from_u64(0);
        let pred = self.forward(&mut g, &self.store, &self.blocks, xi, false, &mut rng);
        Ok(scaler.inverse(0, g.value(pred).data()))
    }

    fn predict_batch(
        &self,
        windows: &neural::tensor::Tensor,
    ) -> Result<neural::tensor::Tensor, ForecastError> {
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_batch(windows, self.config.input_len)?;
        if windows.rows() == 0 {
            return Ok(neural::tensor::Tensor::zeros(0, self.config.horizon));
        }
        // Every block op (Dense, ReLU, residual sub/add) is row-local, so
        // one [n, k] forward reproduces the per-window rows bitwise.
        let x = scale_rows(windows, scaler);
        let mut g = Graph::new();
        let xi = g.input(x);
        let mut rng = StdRng::seed_from_u64(0);
        let pred = self.forward(&mut g, &self.store, &self.blocks, xi, false, &mut rng);
        Ok(inverse_rows(g.value(pred), scaler))
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        if self.blocks.is_empty() {
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
        let (mut store, blocks) = self.build_blocks();
        stateio::check_len(state, store.len() + 3)?;
        stateio::get_params(&mut store, state)?;
        self.store = store;
        self.blocks = blocks;
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

    fn small_config() -> NBeatsConfig {
        NBeatsConfig {
            input_len: 32,
            horizon: 8,
            blocks: 2,
            width: 24,
            train: TrainConfig { max_epochs: 30, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn learns_seasonal_series() {
        let n = 1200;
        let data: Vec<f64> =
            (0..n).map(|i| 5.0 + 2.0 * (i as f64 / 16.0 * std::f64::consts::TAU).sin()).collect();
        let (tr, rest) = data.split_at(900);
        let (va, te) = rest.split_at(150);
        let mut model = NBeats::new(small_config());
        model.fit(&uni(tr.to_vec()), &uni(va.to_vec())).unwrap();
        let pred = model.predict(&[te[..32].to_vec()]).unwrap();
        let rmse = tsdata::metrics::rmse(&te[32..40], &pred);
        assert!(rmse < 0.8, "rmse {rmse}");
    }

    #[test]
    fn residual_stacking_means_more_blocks_more_params() {
        let mk = |blocks: usize| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = ParamStore::new();
            let cfg = NBeatsConfig { blocks, ..small_config() };
            for b in 0..blocks {
                Block::new(&mut store, &format!("b{b}"), &cfg, &mut rng);
            }
            store.num_scalars()
        };
        assert_eq!(mk(4), 2 * mk(2), "parameter count linear in block count");
        assert!(mk(3) > mk(1));
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = NBeats::new(small_config());
        assert_eq!(m.predict(&[vec![0.0; 32]]).unwrap_err(), ForecastError::NotFitted);
    }

    #[test]
    fn prediction_shape_and_determinism() {
        let data: Vec<f64> = (0..600).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut m = NBeats::new(NBeatsConfig {
            train: TrainConfig { max_epochs: 2, ..Default::default() },
            ..small_config()
        });
        m.fit(&uni(data[..450].to_vec()), &uni(data[450..550].to_vec())).unwrap();
        let w = data[550..582].to_vec();
        let p1 = m.predict(std::slice::from_ref(&w)).unwrap();
        let p2 = m.predict(&[w]).unwrap();
        assert_eq!(p1.len(), 8);
        assert_eq!(p1, p2, "inference must be deterministic (no dropout)");
    }
}
