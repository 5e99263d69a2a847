//! Adam optimizer (Kingma & Ba, ICLR 2015) with L2 weight decay and global
//! gradient-norm clipping.
//!
//! The paper trains all deep models with Adam, learning rate `1e-3` and
//! weight decay `1e-4` (§3.4); those are the defaults here.

use crate::graph::ParamStore;
use crate::tensor::Tensor;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate (paper default 1e-3).
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
    /// L2 weight decay added to gradients (paper default 1e-4).
    pub weight_decay: f64,
    /// Global gradient-norm clip; `None` disables clipping.
    pub clip_norm: Option<f64>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
            clip_norm: Some(5.0),
        }
    }
}

/// Adam optimizer state (first/second moments per parameter tensor).
#[derive(Debug)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state matching the store's parameters.
    pub fn new(store: &ParamStore, config: AdamConfig) -> Self {
        let m = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                Tensor::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam { config, m, v, t: 0 }
    }

    /// Applies one update using the gradients accumulated in `store`, then
    /// leaves the gradients untouched (caller zeroes them next step).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        if let Some(max_norm) = self.config.clip_norm {
            let norm = store.grad_norm();
            if norm > max_norm && norm > 0.0 {
                store.scale_grads(max_norm / norm);
            }
        }
        let c = self.config;
        let bias1 = 1.0 - c.beta1.powi(self.t as i32);
        let bias2 = 1.0 - c.beta2.powi(self.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let i = id.0;
            // Copy out gradient + weight-decay contribution.
            let grad: Vec<f64> = store
                .grad(id)
                .data()
                .iter()
                .zip(store.value(id).data())
                .map(|(&g, &w)| g + c.weight_decay * w)
                .collect();
            let value = store.value_mut(id);
            for (k, &g) in grad.iter().enumerate() {
                let m = &mut self.m[i].data_mut()[k];
                *m = c.beta1 * *m + (1.0 - c.beta1) * g;
                let v = &mut self.v[i].data_mut()[k];
                *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                value.data_mut()[k] -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn adam_minimizes_quadratic() {
        // f(w) = mean((w - target)^2)
        let mut store = ParamStore::new();
        let target = Tensor::row(&[3.0, -2.0, 0.5]);
        let w = store.add("w", Tensor::zeros(1, 3));
        let mut adam =
            Adam::new(&store, AdamConfig { lr: 0.05, weight_decay: 0.0, ..Default::default() });
        for _ in 0..500 {
            store.zero_grads();
            let mut g = Graph::new();
            let wi = g.param(&store, w);
            let loss = g.mse(wi, &target);
            g.backward(loss, &mut store);
            adam.step(&mut store);
        }
        for (a, b) in store.value(w).data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // With zero data gradient, weight decay alone should pull weights
        // toward zero.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[10.0]));
        let mut adam = Adam::new(
            &store,
            AdamConfig { lr: 0.1, weight_decay: 0.1, clip_norm: None, ..Default::default() },
        );
        for _ in 0..200 {
            store.zero_grads(); // gradient stays zero
            adam.step(&mut store);
        }
        assert!(store.value(w).get(0, 0).abs() < 1.0);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[0.0]));
        let mut adam = Adam::new(
            &store,
            AdamConfig { lr: 1.0, weight_decay: 0.0, clip_norm: Some(1.0), ..Default::default() },
        );
        store.zero_grads();
        // Inject an enormous gradient via a scaled loss.
        let mut g = Graph::new();
        let wi = g.param(&store, w);
        let big = g.scale(wi, 1e6);
        let target = Tensor::row(&[1e6]);
        let loss = g.mse(big, &target);
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 1e6);
        adam.step(&mut store);
        // Post-clip the Adam step magnitude is at most ~lr.
        assert!(store.value(w).get(0, 0).abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn step_counter_bias_correction() {
        // First step of Adam moves by ~lr regardless of gradient scale.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(&[5.0]));
        let mut adam = Adam::new(
            &store,
            AdamConfig { lr: 0.01, weight_decay: 0.0, clip_norm: None, ..Default::default() },
        );
        store.zero_grads();
        let mut g = Graph::new();
        let wi = g.param(&store, w);
        let target = Tensor::row(&[0.0]);
        let loss = g.mse(wi, &target);
        g.backward(loss, &mut store);
        adam.step(&mut store);
        let moved = 5.0 - store.value(w).get(0, 0);
        assert!((moved - 0.01).abs() < 1e-6, "first Adam step {moved}");
    }
}
