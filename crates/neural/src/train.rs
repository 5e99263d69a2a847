//! Mini-batch training loop with validation-based early stopping.
//!
//! Matches §3.4 of the paper: Adam (lr 1e-3, weight decay 1e-4), early
//! stopping on the validation subset with patience 3, and seeded
//! initialization so repeated runs with different seeds average out
//! initialization noise (§3.6).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use crate::graph::{Graph, NodeId, ParamStore};
use crate::optim::{Adam, AdamConfig};
use crate::tensor::Tensor;

/// Training-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (paper: 3).
    pub patience: usize,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Shuffling / dropout seed.
    pub seed: u64,
    /// Model name used as the `model` label on training telemetry
    /// (epoch and step-stage durations, loss gauges). Purely
    /// observational.
    pub model: &'static str,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 30,
            patience: 3,
            adam: AdamConfig::default(),
            seed: 42,
            model: "model",
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs: usize,
    /// Training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation loss per epoch.
    pub val_losses: Vec<f64>,
    /// Best validation loss (the restored checkpoint).
    pub best_val: f64,
}

/// Snapshot of parameter values (for best-checkpoint restore).
fn snapshot(store: &ParamStore) -> Vec<Tensor> {
    store.ids().map(|id| store.value(id).clone()).collect()
}

fn restore(store: &mut ParamStore, snap: &[Tensor]) {
    for (id, t) in store.ids().collect::<Vec<_>>().into_iter().zip(snap) {
        *store.value_mut(id) = t.clone();
    }
}

/// Trains a model whose loss is produced by `loss_fn`.
///
/// `loss_fn(graph, store, batch_index, training, rng)` must build the
/// forward pass for the given training batch and return a scalar loss node;
/// with `training = false` it is called on validation batches (indices
/// `0..n_val_batches`) and must not apply dropout.
///
/// Besides `train_epoch_seconds{model}`, every step records its
/// `forward`, `backward` and `optimizer` durations, and every epoch its
/// `validation` pass, in `train_step_seconds{model, stage}`.
pub fn train<F>(
    store: &mut ParamStore,
    config: TrainConfig,
    n_train_batches: usize,
    n_val_batches: usize,
    mut loss_fn: F,
) -> TrainReport
where
    F: FnMut(&mut Graph, &ParamStore, usize, bool, &mut StdRng) -> NodeId,
{
    assert!(n_train_batches > 0, "no training batches");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut adam = Adam::new(store, config.adam);
    let mut best_val = f64::INFINITY;
    let mut best_snap = snapshot(store);
    let mut bad_epochs = 0usize;
    let mut train_losses = Vec::new();
    let mut val_losses = Vec::new();

    let model_label = [("model", config.model)];
    let stage_seconds = |stage: &str, since: Instant| {
        telemetry::observe(
            "train_step_seconds",
            &[("model", config.model), ("stage", stage)],
            telemetry::secs(since.elapsed()),
        );
    };
    let mut order: Vec<usize> = (0..n_train_batches).collect();
    for _epoch in 0..config.max_epochs {
        let epoch_start = Instant::now();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for &b in &order {
            let forward_start = Instant::now();
            store.zero_grads();
            let mut g = Graph::new();
            let loss = loss_fn(&mut g, store, b, true, &mut rng);
            epoch_loss += g.value(loss).get(0, 0);
            stage_seconds("forward", forward_start);
            let backward_start = Instant::now();
            g.backward(loss, store);
            stage_seconds("backward", backward_start);
            let optimizer_start = Instant::now();
            adam.step(store);
            stage_seconds("optimizer", optimizer_start);
        }
        train_losses.push(epoch_loss / n_train_batches as f64);

        let validation_start = Instant::now();
        let val = if n_val_batches > 0 {
            let mut v = 0.0;
            for b in 0..n_val_batches {
                let mut g = Graph::new();
                let loss = loss_fn(&mut g, store, b, false, &mut rng);
                v += g.value(loss).get(0, 0);
            }
            v / n_val_batches as f64
        } else {
            *train_losses.last().expect("pushed above")
        };
        stage_seconds("validation", validation_start);
        val_losses.push(val);

        telemetry::counter_add("train_epochs_total", &model_label, 1);
        telemetry::observe(
            "train_epoch_seconds",
            &model_label,
            telemetry::secs(epoch_start.elapsed()),
        );
        telemetry::gauge_set("train_loss", &model_label, *train_losses.last().expect("pushed"));
        telemetry::gauge_set("val_loss", &model_label, val);

        if val < best_val - 1e-12 {
            best_val = val;
            best_snap = snapshot(store);
            bad_epochs = 0;
        } else {
            bad_epochs += 1;
            if bad_epochs > config.patience {
                break;
            }
        }
    }
    restore(store, &best_snap);
    TrainReport { epochs: train_losses.len(), train_losses, val_losses, best_val }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense};

    /// y = sin(x) regression with a 2-layer MLP.
    #[allow(clippy::type_complexity)]
    fn make_problem() -> (Vec<(Tensor, Tensor)>, Vec<(Tensor, Tensor)>) {
        let batch = |lo: f64, hi: f64, n: usize| {
            let xs: Vec<f64> = (0..n).map(|i| lo + (hi - lo) * i as f64 / n as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
            (Tensor::col(&xs), Tensor::col(&ys))
        };
        let train: Vec<_> =
            (0..8).map(|b| batch(-3.0 + b as f64 * 0.7, -2.4 + b as f64 * 0.7, 16)).collect();
        let val = vec![batch(-1.0, 1.0, 32)];
        (train, val)
    }

    #[test]
    fn training_reduces_loss_and_early_stops() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l1 = Dense::new(&mut store, "l1", 1, 16, Activation::Tanh, &mut rng);
        let l2 = Dense::new(&mut store, "l2", 16, 1, Activation::Identity, &mut rng);
        let (train_b, val_b) = make_problem();
        let report = train(
            &mut store,
            TrainConfig {
                max_epochs: 200,
                patience: 5,
                adam: AdamConfig { lr: 0.01, weight_decay: 0.0, ..Default::default() },
                seed: 1,
                ..Default::default()
            },
            train_b.len(),
            val_b.len(),
            |g, s, b, training, _rng| {
                let (x, y) = if training { &train_b[b] } else { &val_b[b] };
                let xi = g.input(x.clone());
                let h = l1.forward(g, s, xi);
                let out = l2.forward(g, s, h);
                g.mse(out, y)
            },
        );
        assert!(report.best_val < 0.02, "val loss {}", report.best_val);
        assert!(
            report.train_losses.first().expect("ran") > report.train_losses.last().expect("ran"),
            "loss did not decrease"
        );
    }

    #[test]
    fn early_stopping_restores_best_checkpoint() {
        // A "model" whose loss we control: improves for 3 epochs then
        // diverges. Early stopping must restore the epoch-3 parameters.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[0.0]));
        let epoch = std::cell::Cell::new(0usize);
        let report = train(
            &mut store,
            TrainConfig {
                max_epochs: 20,
                patience: 2,
                adam: AdamConfig {
                    lr: 0.5,
                    weight_decay: 0.0,
                    clip_norm: None,
                    ..Default::default()
                },
                seed: 0,
                ..Default::default()
            },
            1,
            1,
            |g, s, _b, training, _rng| {
                if training {
                    epoch.set(epoch.get() + 1);
                }
                // Target walks away after epoch 3, so val loss worsens.
                let target = if epoch.get() <= 3 { 1.0 } else { 100.0 };
                let wi = g.param(s, w);
                g.mse(wi, &Tensor::row(&[target]))
            },
        );
        assert!(report.epochs < 20, "should stop early, ran {}", report.epochs);
        // Restored weight is from the best epoch: near the early target 1.0,
        // far from 100.
        assert!(store.value(w).get(0, 0) < 5.0);
    }

    #[test]
    fn step_stages_are_observed_once_per_step() {
        telemetry::set_enabled(true);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[0.0]));
        let report = train(
            &mut store,
            TrainConfig { max_epochs: 4, model: "stage-telemetry-test", ..Default::default() },
            3,
            2,
            |g, s, _b, _training, _rng| {
                let wi = g.param(s, w);
                g.mse(wi, &Tensor::row(&[1.0]))
            },
        );
        let count = |stage: &str| {
            let labels = [("model", "stage-telemetry-test"), ("stage", stage)];
            telemetry::global()
                .metrics()
                .snapshot()
                .into_iter()
                .find(|m| {
                    m.name == "train_step_seconds"
                        && m.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).eq(labels)
                })
                .and_then(|m| m.value.as_histogram_totals())
                .map_or(0, |(count, _)| count)
        };
        for stage in ["forward", "backward", "optimizer"] {
            assert_eq!(count(stage), 3 * report.epochs as u64, "{stage}");
        }
        assert_eq!(count("validation"), report.epochs as u64);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut store = ParamStore::new();
            let l = Dense::new(&mut store, "l", 1, 4, Activation::Tanh, &mut rng);
            let l2 = Dense::new(&mut store, "l2", 4, 1, Activation::Identity, &mut rng);
            let x = Tensor::col(&[0.1, 0.2, 0.3]);
            let y = Tensor::col(&[0.5, 0.4, 0.3]);
            train(
                &mut store,
                TrainConfig { max_epochs: 5, seed, ..Default::default() },
                2,
                0,
                |g, s, _b, _t, _r| {
                    let xi = g.input(x.clone());
                    let h = l.forward(g, s, xi);
                    let out = l2.forward(g, s, h);
                    g.mse(out, &y)
                },
            )
            .train_losses
        };
        assert_eq!(run(5), run(5));
    }
}
