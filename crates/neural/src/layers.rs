//! Reusable layers: dense (fully connected), dropout, and layer
//! normalization, plus weight initialization.

use rand::rngs::StdRng;
use rand::RngExt;

use crate::graph::{Graph, NodeId, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Activation applied after a dense layer's affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation.
    Identity,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
}

/// Glorot/Xavier-uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
pub(crate) fn glorot(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let a = (6.0 / (rows + cols) as f64).sqrt();
    let data = (0..rows * cols).map(|_| (rng.random::<f64>() * 2.0 - 1.0) * a).collect();
    Tensor::new(rows, cols, data)
}

/// A fully connected layer `y = act(x W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight parameter `[in, out]`.
    pub w: ParamId,
    /// Bias parameter `[1, out]`.
    pub b: ParamId,
    /// Post-affine activation.
    pub activation: Activation,
}

impl Dense {
    /// Creates and registers the layer's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.add(&format!("{name}.w"), glorot(in_dim, out_dim, rng));
        let b = store.add(&format!("{name}.b"), Tensor::zeros(1, out_dim));
        Dense { w, b, activation }
    }

    /// Applies the layer within a graph.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let y = g.matmul(x, w);
        let y = g.add_row(y, b);
        match self.activation {
            Activation::Identity => y,
            Activation::Tanh => g.tanh(y),
            Activation::Sigmoid => g.sigmoid(y),
            Activation::Relu => g.relu(y),
        }
    }
}

/// Inverted dropout. During training, zeroes each element with probability
/// `p` and scales survivors by `1/(1-p)`; at inference it is the identity.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f64,
}

impl Dropout {
    /// Creates a dropout layer. `p` outside `[0, 1)` is clamped.
    pub fn new(p: f64) -> Self {
        Dropout { p: p.clamp(0.0, 0.999) }
    }

    /// Applies dropout. `training = false` (or `p == 0`) is a no-op.
    pub fn forward(&self, g: &mut Graph, x: NodeId, training: bool, rng: &mut StdRng) -> NodeId {
        if !training || self.p == 0.0 {
            return x;
        }
        let (r, c) = g.value(x).shape();
        let keep = 1.0 - self.p;
        let mask = Tensor::new(
            r,
            c,
            (0..r * c).map(|_| if rng.random::<f64>() < keep { 1.0 / keep } else { 0.0 }).collect(),
        );
        g.dropout(x, mask)
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain `[1, dim]`, initialized to ones.
    pub gamma: ParamId,
    /// Bias `[1, dim]`, initialized to zeros.
    pub beta: ParamId,
}

impl LayerNorm {
    /// Registers gain/bias parameters for feature dimension `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(&format!("{name}.gamma"), Tensor::full(1, dim, 1.0));
        let beta = store.add(&format!("{name}.beta"), Tensor::zeros(1, dim));
        LayerNorm { gamma, beta }
    }

    /// Applies row-wise layer normalization.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.layer_norm(x, gamma, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn glorot_range() {
        let t = glorot(100, 50, &mut rng());
        let a = (6.0 / 150.0f64).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= a));
        // not degenerate
        assert!(t.data().iter().any(|&v| v.abs() > a / 10.0));
    }

    #[test]
    fn dense_shapes_and_activation() {
        let mut store = ParamStore::new();
        let d = Dense::new(&mut store, "d", 3, 2, Activation::Relu, &mut rng());
        let mut g = Graph::new();
        let x = g.input(Tensor::new(4, 3, vec![0.5; 12]));
        let y = d.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (4, 2));
        assert!(g.value(y).data().iter().all(|&v| v >= 0.0), "relu output");
    }

    #[test]
    fn dense_trains_linear_map() {
        // One dense layer should fit y = 2x - 1 quickly with plain SGD.
        let mut store = ParamStore::new();
        let d = Dense::new(&mut store, "d", 1, 1, Activation::Identity, &mut rng());
        let xs = Tensor::col(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let ts = xs.map(|x| 2.0 * x - 1.0);
        for _ in 0..500 {
            store.zero_grads();
            let mut g = Graph::new();
            let x = g.input(xs.clone());
            let y = d.forward(&mut g, &store, x);
            let loss = g.mse(y, &ts);
            g.backward(loss, &mut store);
            for id in store.ids().collect::<Vec<_>>() {
                let grad = store.grad(id).clone();
                let v = store.value_mut(id);
                for (p, g) in v.data_mut().iter_mut().zip(grad.data()) {
                    *p -= 0.1 * g;
                }
            }
        }
        assert!((store.value(d.w).get(0, 0) - 2.0).abs() < 1e-3);
        assert!((store.value(d.b).get(0, 0) + 1.0).abs() < 1e-3);
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut g = Graph::new();
        let x = g.input(Tensor::row(&[1.0, 2.0, 3.0]));
        let d = Dropout::new(0.5);
        let y = d.forward(&mut g, x, false, &mut rng());
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_training_preserves_expectation() {
        let mut r = rng();
        let mut g = Graph::new();
        let n = 10_000;
        let x = g.input(Tensor::full(1, n, 1.0));
        let d = Dropout::new(0.3);
        let y = d.forward(&mut g, x, true, &mut r);
        let mean = g.value(y).data().iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
        let zeros = g.value(y).data().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f64 / n as f64 - 0.3).abs() < 0.05);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let x = g.input(Tensor::new(2, 4, vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]));
        let y = ln.forward(&mut g, &store, x);
        let v = g.value(y);
        for r in 0..2 {
            let mean: f64 = (0..4).map(|j| v.get(r, j)).sum::<f64>() / 4.0;
            let var: f64 = (0..4).map(|j| (v.get(r, j) - mean).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }
}
