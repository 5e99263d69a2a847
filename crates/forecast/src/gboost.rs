//! Least-squares gradient boosting (Friedman 2001) over CART regression
//! trees — the paper's GBoost model (§3.4), and also the regressor the
//! characteristics analysis trains to predict TFE (§4.3.1).
//!
//! Two layers: [`GbmRegressor`] is a generic `X → y` booster (reused by
//! `analysis::shap`); `GBoost` wraps it as a [`Forecaster`] using lag
//! features and direct multi-step prediction (one booster per horizon
//! step).

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

use crate::model::{validate_batch, validate_window, ForecastError, Forecaster};
use crate::stateio;
use crate::tree::{BinnedFeatures, Node, RegressionTree, TreeConfig};

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GbmConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Per-tree limits.
    pub tree: TreeConfig,
    /// Row subsampling fraction per round (stochastic gradient boosting).
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
    /// Histogram bins for split finding; `None` = exact (per-node sorted)
    /// splits, which are slower on large training sets.
    pub bins: Option<usize>,
}

impl Default for GbmConfig {
    fn default() -> Self {
        GbmConfig {
            n_estimators: 100,
            learning_rate: 0.1,
            tree: TreeConfig::default(),
            subsample: 1.0,
            seed: 0,
            bins: Some(64),
        }
    }
}

/// A fitted gradient-boosting ensemble for regression.
#[derive(Debug, Clone)]
pub struct GbmRegressor {
    base: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    num_features: usize,
}

impl GbmRegressor {
    /// Fits on row-major `features` (`n × num_features`).
    ///
    /// # Panics
    /// Panics on shape mismatch or empty input.
    pub fn fit(features: &[f64], targets: &[f64], num_features: usize, config: GbmConfig) -> Self {
        let n = targets.len();
        assert!(n > 0, "empty training set");
        assert_eq!(features.len(), n * num_features, "feature matrix shape");
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut trees = Vec::with_capacity(config.n_estimators);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut indices: Vec<usize> = (0..n).collect();
        let sub_n = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
        let binned = config.bins.map(|b| BinnedFeatures::build(features, n, num_features, b));
        for _ in 0..config.n_estimators {
            // Negative gradient of squared loss = residual.
            let residuals: Vec<f64> = targets.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let chosen: &[usize] = if sub_n < n {
                indices.shuffle(&mut rng);
                &indices[..sub_n]
            } else {
                &indices
            };
            let tree = match &binned {
                Some(binned) => {
                    RegressionTree::fit_binned(binned, &residuals, chosen.to_vec(), config.tree)
                }
                None => {
                    let mut xf = Vec::with_capacity(chosen.len() * num_features);
                    let mut rf = Vec::with_capacity(chosen.len());
                    for &i in chosen {
                        xf.extend_from_slice(&features[i * num_features..(i + 1) * num_features]);
                        rf.push(residuals[i]);
                    }
                    RegressionTree::fit(&xf, &rf, num_features, config.tree)
                }
            };
            for (i, p) in pred.iter_mut().enumerate() {
                *p += config.learning_rate
                    * tree.predict(&features[i * num_features..(i + 1) * num_features]);
            }
            trees.push(tree);
        }
        GbmRegressor { base, trees, learning_rate: config.learning_rate, num_features }
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.num_features);
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// The fitted trees (for TreeSHAP).
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The constant base prediction.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Shrinkage factor applied per tree.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Rebuilds an ensemble from stored parts (state deserialization).
    fn from_parts(
        base: f64,
        trees: Vec<RegressionTree>,
        learning_rate: f64,
        num_features: usize,
    ) -> Self {
        GbmRegressor { base, trees, learning_rate, num_features }
    }
}

/// Forecasting configuration for [`GBoost`].
#[derive(Debug, Clone)]
pub(crate) struct GBoostConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Boosting hyperparameters.
    pub gbm: GbmConfig,
    /// Stride between training windows (controls sample count).
    pub stride: usize,
    /// Cap on training windows (most recent kept).
    pub max_windows: usize,
}

impl Default for GBoostConfig {
    fn default() -> Self {
        GBoostConfig {
            input_len: 96,
            horizon: 24,
            gbm: GbmConfig { n_estimators: 80, subsample: 0.8, ..Default::default() },
            stride: 2,
            max_windows: 4000,
        }
    }
}

/// The GBoost forecaster: one booster per horizon step on lag features,
/// so predictions never feed back into the window.
#[derive(Debug, Clone)]
pub(crate) struct GBoost {
    config: GBoostConfig,
    /// One booster per horizon step.
    models: Vec<GbmRegressor>,
    scaler: Option<StandardScaler>,
}

impl GBoost {
    /// Creates an unfitted model.
    pub(crate) fn new(config: GBoostConfig) -> Self {
        GBoost { config, models: Vec::new(), scaler: None }
    }
}

impl Forecaster for GBoost {
    fn name(&self) -> &'static str {
        "GBoost"
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train: &MultiSeries, _val: &MultiSeries) -> Result<(), ForecastError> {
        let raw = train.target().values();
        let k = self.config.input_len;
        let h = self.config.horizon;
        if raw.len() < k + h + 10 {
            return Err(ForecastError::TooShort { needed: k + h + 10, got: raw.len() });
        }
        let scaler = StandardScaler::fit_single(raw);
        let y = scaler.transform(0, raw);
        // Lag-feature windows, sliding with stride; every step's booster
        // shares the feature matrix.
        let mut starts: Vec<usize> =
            (0..y.len() - k - (h - 1)).step_by(self.config.stride).collect();
        if starts.len() > self.config.max_windows {
            starts = starts[starts.len() - self.config.max_windows..].to_vec();
        }
        let mut features = Vec::with_capacity(starts.len() * k);
        for &s in &starts {
            features.extend_from_slice(&y[s..s + k]);
        }
        self.models = (0..h)
            .map(|step| {
                let targets: Vec<f64> = starts.iter().map(|&s| y[s + k + step]).collect();
                let cfg = GbmConfig {
                    seed: self.config.gbm.seed.wrapping_add(step as u64),
                    ..self.config.gbm
                };
                GbmRegressor::fit(&features, &targets, k, cfg)
            })
            .collect();
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        if self.models.is_empty() {
            return Err(ForecastError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_window(inputs, self.config.input_len)?;
        let window = scaler.transform(0, &inputs[0]);
        let out: Vec<f64> = self.models.iter().map(|m| m.predict(&window)).collect();
        Ok(scaler.inverse(0, &out))
    }

    fn predict_batch(
        &self,
        windows: &neural::tensor::Tensor,
    ) -> Result<neural::tensor::Tensor, ForecastError> {
        if self.models.is_empty() {
            return Err(ForecastError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_batch(windows, self.config.input_len)?;
        let k = self.config.input_len;
        let h = self.config.horizon;
        let n = windows.rows();
        let mut out = neural::tensor::Tensor::zeros(n, h);
        let scaled: Vec<Vec<f64>> =
            (0..n).map(|r| scaler.transform(0, &windows.data()[r * k..(r + 1) * k])).collect();
        // Boosters outer, windows inner: each booster's tree nodes stay hot
        // in cache across the whole batch. Values match the per-window loop
        // because each (booster, window) prediction is independent.
        for (step, m) in self.models.iter().enumerate() {
            for (r, w) in scaled.iter().enumerate() {
                out.data_mut()[r * h + step] = m.predict(w);
            }
        }
        for r in 0..n {
            let inv = scaler.inverse(0, &out.data()[r * h..(r + 1) * h]);
            out.data_mut()[r * h..(r + 1) * h].copy_from_slice(&inv);
        }
        Ok(out)
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        if self.models.is_empty() {
            return Err(ForecastError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        let mut dict = neural::state::StateDict::new();
        stateio::put_tag(&mut dict, self.name());
        stateio::put_row(&mut dict, "gboost.num_models", &[self.models.len() as f64]);
        for (i, m) in self.models.iter().enumerate() {
            stateio::put_row(
                &mut dict,
                &format!("gboost.{i}.meta"),
                &[m.base(), m.learning_rate(), m.num_features() as f64, m.trees().len() as f64],
            );
            for (t, tree) in m.trees().iter().enumerate() {
                let mut flat = Vec::with_capacity(tree.nodes().len() * 6);
                for node in tree.nodes() {
                    match *node {
                        Node::Leaf { value, cover } => {
                            flat.extend_from_slice(&[0.0, value, 0.0, 0.0, 0.0, cover]);
                        }
                        Node::Split { feature, threshold, left, right, cover } => {
                            flat.extend_from_slice(&[
                                1.0,
                                feature as f64,
                                threshold,
                                left as f64,
                                right as f64,
                                cover,
                            ]);
                        }
                    }
                }
                let rows = tree.nodes().len();
                dict.insert(
                    &format!("gboost.{i}.tree{t}"),
                    neural::tensor::Tensor::new(rows, 6, flat),
                );
            }
        }
        stateio::put_scaler(&mut dict, "gboost.scaler", scaler);
        Ok(dict)
    }

    fn load_state(&mut self, state: &neural::state::StateDict) -> Result<(), ForecastError> {
        stateio::check_tag(state, self.name())?;
        let num_models =
            stateio::index(stateio::scalar(state, "gboost.num_models")?, "gboost model count")?;
        let horizon = self.config.horizon;
        if num_models != horizon {
            return Err(stateio::invalid(format!(
                "snapshot has {num_models} boosters, configuration needs {horizon}"
            )));
        }
        let mut models = Vec::with_capacity(num_models);
        let mut entries = 4; // tag + num_models + scaler means/stds
        for i in 0..num_models {
            let meta = stateio::row(state, &format!("gboost.{i}.meta"))?;
            if meta.len() != 4 {
                return Err(stateio::invalid(format!("gboost.{i}.meta must hold 4 values")));
            }
            let num_features = stateio::index(meta[2], "gboost feature count")?;
            if num_features != self.config.input_len {
                return Err(stateio::invalid(format!(
                    "booster {i} expects {num_features} features, configuration has {}",
                    self.config.input_len
                )));
            }
            let num_trees = stateio::index(meta[3], "gboost tree count")?;
            entries += 1 + num_trees;
            let mut trees = Vec::with_capacity(num_trees);
            for t in 0..num_trees {
                let name = format!("gboost.{i}.tree{t}");
                let tensor = state
                    .get(&name)
                    .ok_or_else(|| stateio::invalid(format!("missing entry `{name}`")))?;
                let (rows, cols) = tensor.shape();
                if cols != 6 || rows == 0 {
                    return Err(stateio::invalid(format!("entry `{name}` must be n×6, n > 0")));
                }
                let mut nodes = Vec::with_capacity(rows);
                for row in tensor.data().chunks_exact(6) {
                    let node = match row[0] {
                        0.0 => Node::Leaf { value: row[1], cover: row[5] },
                        1.0 => {
                            let left = stateio::index(row[3], "tree left child")?;
                            let right = stateio::index(row[4], "tree right child")?;
                            if left >= rows || right >= rows {
                                return Err(stateio::invalid(format!(
                                    "entry `{name}` has a child index out of range"
                                )));
                            }
                            let feature = stateio::index(row[1], "tree split feature")?;
                            if feature >= num_features {
                                return Err(stateio::invalid(format!(
                                    "entry `{name}` splits on feature {feature} of {num_features}"
                                )));
                            }
                            Node::Split { feature, threshold: row[2], left, right, cover: row[5] }
                        }
                        tag => {
                            return Err(stateio::invalid(format!(
                                "entry `{name}` has unknown node tag {tag}"
                            )))
                        }
                    };
                    nodes.push(node);
                }
                trees.push(RegressionTree::from_parts(nodes, num_features));
            }
            models.push(GbmRegressor::from_parts(meta[0], trees, meta[1], num_features));
        }
        stateio::check_len(state, entries)?;
        let scaler = stateio::get_scaler(state, "gboost.scaler")?;
        self.models = models;
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
    fn gbm_fits_nonlinear_function() {
        // y = x0^2 + step(x1)
        let n = 400;
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let x0 = (i % 20) as f64 / 10.0 - 1.0;
            let x1 = ((i * 7) % 13) as f64 - 6.0;
            features.extend_from_slice(&[x0, x1]);
            targets.push(x0 * x0 + if x1 > 0.0 { 2.0 } else { 0.0 });
        }
        let gbm = GbmRegressor::fit(
            &features,
            &targets,
            2,
            GbmConfig { n_estimators: 120, ..Default::default() },
        );
        let mut sse = 0.0;
        for i in 0..n {
            let p = gbm.predict(&features[2 * i..2 * i + 2]);
            sse += (p - targets[i]) * (p - targets[i]);
        }
        let mse = sse / n as f64;
        assert!(mse < 0.05, "mse {mse}");
    }

    #[test]
    fn gbm_more_trees_fit_better() {
        let n = 300;
        let features: Vec<f64> = (0..n).map(|i| i as f64 / 30.0).collect();
        let targets: Vec<f64> = features.iter().map(|x| (x * 2.0).sin()).collect();
        let mse = |rounds: usize| {
            let gbm = GbmRegressor::fit(
                &features,
                &targets,
                1,
                GbmConfig { n_estimators: rounds, ..Default::default() },
            );
            (0..n)
                .map(|i| {
                    let p = gbm.predict(&features[i..i + 1]);
                    (p - targets[i]) * (p - targets[i])
                })
                .sum::<f64>()
                / n as f64
        };
        assert!(mse(100) < mse(5));
    }

    #[test]
    fn gbm_base_is_mean_with_zero_trees() {
        let gbm = GbmRegressor::fit(
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0, 30.0],
            1,
            GbmConfig { n_estimators: 0, ..Default::default() },
        );
        assert_eq!(gbm.predict(&[2.0]), 20.0);
        assert!(gbm.trees().is_empty());
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let n = 200;
        let features: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let targets: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let fit = |seed| {
            GbmRegressor::fit(
                &features,
                &targets,
                1,
                GbmConfig { n_estimators: 10, subsample: 0.5, seed, ..Default::default() },
            )
            .predict(&[0.3])
        };
        assert_eq!(fit(1), fit(1));
        assert_ne!(fit(1), fit(2));
    }

    #[test]
    fn forecaster_learns_seasonal_pattern() {
        let n = 2000;
        let data: Vec<f64> =
            (0..n).map(|i| 10.0 + 3.0 * (i as f64 / 24.0 * std::f64::consts::TAU).sin()).collect();
        let (train, test) = data.split_at(1600);
        let mut model =
            GBoost::new(GBoostConfig { input_len: 48, horizon: 12, ..Default::default() });
        model.fit(&uni(train.to_vec()), &uni(test.to_vec())).unwrap();
        let window = test[..48].to_vec();
        let actual = &test[48..60];
        let pred = model.predict(&[window]).unwrap();
        let rmse = tsdata::metrics::rmse(actual, &pred);
        assert!(rmse < 1.0, "rmse {rmse}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = GBoost::new(GBoostConfig::default());
        assert_eq!(m.predict(&[vec![0.0; 96]]).unwrap_err(), ForecastError::NotFitted);
    }

    #[test]
    fn window_length_validated() {
        let data: Vec<f64> = (0..800).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut m = GBoost::new(GBoostConfig { input_len: 48, horizon: 8, ..Default::default() });
        m.fit(&uni(data.clone()), &uni(data)).unwrap();
        assert!(matches!(m.predict(&[vec![0.0; 3]]).unwrap_err(), ForecastError::BadWindow { .. }));
    }
}
