//! # neural — a from-scratch neural-network framework
//!
//! The deep-learning substrate for the paper's five neural forecasters
//! (GRU, NBeats, DLinear, Transformer, Informer):
//!
//! * [`tensor`] — dense row-major 2-D `f64` matrices.
//! * [`kernels`] — cache-blocked, unroll-vectorized matrix kernels
//!   (`A·B`, `A·Bᵀ`, `Aᵀ·B`, tiled transpose) behind the tensor ops.
//! * [`graph`] — define-by-run reverse-mode autodiff on a flat tape, with
//!   a [`graph::ParamStore`] holding parameters and gradients.
//! * [`layers`] — dense, dropout, layer norm, Glorot initialization.
//! * [`rnn`] — GRU cell (the forecaster unrolls it over the window).
//! * [`attention`] — multi-head attention (full and Informer ProbSparse)
//!   plus sinusoidal positional encodings.
//! * `optim` — Adam with weight decay and gradient clipping (§3.4).
//! * [`mod@train`] — mini-batch loop with early stopping, patience 3 (§3.4).
//! * [`state`] — flat named-tensor snapshots ([`state::StateDict`]), the
//!   format fitted models are stored in.
//!
//! Every op has finite-difference gradient tests; see `graph::tests`.
//!
//! ```
//! use neural::{Graph, ParamStore, Tensor, Adam, AdamConfig};
//!
//! // Fit w to minimize mean((w - target)^2) with three Adam steps.
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::row(&[0.0]));
//! let target = Tensor::row(&[1.0]);
//! let mut adam = Adam::new(&store, AdamConfig { lr: 0.1, ..Default::default() });
//! let mut last = f64::INFINITY;
//! for _ in 0..3 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let wi = g.param(&store, w);
//!     let loss = g.mse(wi, &target);
//!     assert!(g.value(loss).get(0, 0) <= last);
//!     last = g.value(loss).get(0, 0);
//!     g.backward(loss, &mut store);
//!     adam.step(&mut store);
//! }
//! assert!(store.value(w).get(0, 0) > 0.0, "w moved toward the target");
//! ```

pub mod attention;
pub mod graph;
pub mod kernels;
pub mod layers;
mod optim;
pub mod rnn;
pub mod state;
pub mod tensor;
pub mod train;

pub use graph::{Graph, ParamStore};
pub use optim::{Adam, AdamConfig};
pub use tensor::Tensor;
