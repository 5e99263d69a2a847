//! Scaled dot-product attention, multi-head attention, and Informer's
//! ProbSparse variant.
//!
//! Inputs are `[n·L, d_model]` stacks of `n` samples: training passes one
//! sample per graph, stacked inference several. The projections run as
//! one matmul over the stack, and each head is one
//! `Graph::attention_head` node that computes scores, masks, softmax
//! and the value mix per sample block, so a sample's rows never depend on
//! the other samples in the stack.

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId, ParamId, ParamStore};
use crate::layers::glorot;
use crate::tensor::Tensor;

/// Multi-head attention with optional ProbSparse query selection.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    heads: usize,
    d_head: usize,
}

/// Which attention to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Full softmax attention (Transformer).
    Full,
    /// Informer's ProbSparse self-attention: only the `ceil(c·ln L)` most
    /// informative queries attend; the rest fall back to uniform attention
    /// over values (≈ the running mean of V the Informer paper uses).
    ProbSparse {
        /// Sampling factor `c` (Informer default 5).
        factor: usize,
    },
}

impl MultiHeadAttention {
    /// Registers projection weights. `d_model` must be divisible by
    /// `heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        heads: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "d_model {d_model} not divisible by {heads}"
        );
        let wq = store.add(&format!("{name}.wq"), glorot(d_model, d_model, rng));
        let wk = store.add(&format!("{name}.wk"), glorot(d_model, d_model, rng));
        let wv = store.add(&format!("{name}.wv"), glorot(d_model, d_model, rng));
        let wo = store.add(&format!("{name}.wo"), glorot(d_model, d_model, rng));
        MultiHeadAttention { wq, wk, wv, wo, heads, d_head: d_model / heads }
    }

    /// Ids of the projection parameters, in registration order.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.wq, self.wk, self.wv, self.wo]
    }

    /// Applies attention to `n` samples stacked row-wise: sample `i`'s
    /// queries are rows `i·lq..(i+1)·lq` of `q_in` (`[n·lq, d_model]`),
    /// its keys and values rows `i·lk..(i+1)·lk` of `k_in` and `v_in`.
    /// `causal` masks future key positions (decoder self-attention).
    ///
    /// The Q/K/V projections and the output mix run as single matmuls
    /// over all samples, the `[n·L, d]·[d, d]` shape the blocked kernels
    /// want; each head is one `Graph::attention_head` node over its
    /// column range. Every row of the result is bitwise identical to the
    /// same call on that sample alone: the matmuls contract over at most
    /// `d_model` or `lk` elements, within one k-block of the blocked
    /// kernels, so each output row depends only on its own input row.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        q_in: NodeId,
        k_in: NodeId,
        v_in: NodeId,
        kind: AttentionKind,
        causal: bool,
        n: usize,
    ) -> NodeId {
        assert!(n > 0, "attention needs at least one sample");
        let lk = g.value(k_in).rows() / n;
        let wq = g.param(store, self.wq);
        let wk = g.param(store, self.wk);
        let wv = g.param(store, self.wv);
        let q = g.matmul(q_in, wq);
        let k = g.matmul(k_in, wk);
        let v = g.matmul(v_in, wv);
        // ProbSparse keeps the `u` most informative queries per sample;
        // the rest get uniform attention (mean over V), matching
        // Informer's fallback for unselected queries.
        let sparse_u = match kind {
            AttentionKind::Full => None,
            AttentionKind::ProbSparse { factor } => {
                Some(((factor as f64) * (lk.max(2) as f64).ln()).ceil() as usize)
            }
        };
        let scale = 1.0 / (self.d_head as f64).sqrt();
        let mut heads_out: Option<NodeId> = None;
        for h in 0..self.heads {
            let cols = h * self.d_head..(h + 1) * self.d_head;
            let out = g.attention_head(q, k, v, cols, n, scale, sparse_u, causal);
            heads_out = Some(match heads_out {
                None => out,
                Some(prev) => g.hstack(prev, out),
            });
        }
        let concat = heads_out.expect("at least one head");
        let wo = g.param(store, self.wo);
        g.matmul(concat, wo)
    }
}

/// Informer's ProbSparse query selection for one sample's `[lq, lk]`
/// score block (row-major in `scores`): returns one flag per query row,
/// true for every row outside the `u` with the largest sparsity measure
/// `M(q) = max_j s_qj − mean_j s_qj` (Informer Eq. 4). Ties keep row
/// order. A NaN measure, from a row holding NaN or both infinities, ranks
/// last, so a non-finite window selects lazily instead of panicking.
pub(crate) fn lazy_query_rows(scores: &[f64], lk: usize, u: usize) -> Vec<bool> {
    let mut measures: Vec<(usize, f64)> = scores
        .chunks_exact(lk)
        .enumerate()
        .map(|(r, row)| {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = row.iter().sum::<f64>() / lk as f64;
            let m = max - mean;
            (r, if m.is_nan() { f64::NEG_INFINITY } else { m })
        })
        .collect();
    measures.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN measures were mapped to -inf"));
    let mut lazy = vec![true; measures.len()];
    for &(r, _) in measures.iter().take(u) {
        lazy[r] = false;
    }
    lazy
}

/// Sinusoidal positional encoding `[len, d_model]` (Vaswani et al. 2017).
pub fn positional_encoding(len: usize, d_model: usize) -> Tensor {
    let mut pe = Tensor::zeros(len, d_model);
    for pos in 0..len {
        for i in 0..d_model {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / d_model as f64);
            pe.set(pos, i, if i % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn output_shape_matches_query_length() {
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 8, 2, &mut rng());
        let mut g = Graph::new();
        let q = g.input(Tensor::zeros(5, 8));
        let kv = g.input(Tensor::zeros(12, 8));
        let out = mha.forward(&mut g, &store, q, kv, kv, AttentionKind::Full, false, 1);
        assert_eq!(g.value(out).shape(), (5, 8));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_panic() {
        let mut store = ParamStore::new();
        MultiHeadAttention::new(&mut store, "attn", 7, 2, &mut rng());
    }

    #[test]
    fn attention_rows_sum_to_one_effect() {
        // With identical value rows, any softmax weighting returns that row:
        // a direct consequence of rows summing to 1.
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 4, 1, &mut rng());
        let mut g = Graph::new();
        let q = g.input(Tensor::new(3, 4, vec![0.5; 12]));
        let kv_data: Vec<f64> = (0..6).flat_map(|_| vec![1.0, -1.0, 2.0, 0.0]).collect();
        let kv = g.input(Tensor::new(6, 4, kv_data));
        let out = mha.forward(&mut g, &store, q, kv, kv, AttentionKind::Full, false, 1);
        // All value rows are equal, so out rows must be equal too.
        let v = g.value(out);
        for r in 1..3 {
            for c in 0..4 {
                assert!((v.get(r, c) - v.get(0, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With a causal mask, changing a *future* key/value row must not
        // change earlier outputs.
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 4, 1, &mut rng());
        let base: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut altered = base.clone();
        for v in altered[12..16].iter_mut() {
            *v += 5.0; // perturb the last key/value row
        }
        let run = |data: Vec<f64>| {
            let mut g = Graph::new();
            let x = g.input(Tensor::new(4, 4, data));
            let out = mha.forward(&mut g, &store, x, x, x, AttentionKind::Full, true, 1);
            g.value(out).slice_rows(0, 3).clone()
        };
        let a = run(base);
        let b = run(altered);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-9, "causal leak: {x} vs {y}");
        }
    }

    #[test]
    fn probsparse_differs_from_full_on_long_sequences() {
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 4, 1, &mut rng());
        let data: Vec<f64> = (0..128).map(|i| ((i * 31 % 17) as f64 - 8.0) / 8.0).collect();
        let mut g = Graph::new();
        let x = g.input(Tensor::new(32, 4, data));
        let full = mha.forward(&mut g, &store, x, x, x, AttentionKind::Full, false, 1);
        let sparse =
            mha.forward(&mut g, &store, x, x, x, AttentionKind::ProbSparse { factor: 1 }, false, 1);
        assert_eq!(g.value(full).shape(), g.value(sparse).shape());
        let diff: f64 = g
            .value(full)
            .data()
            .iter()
            .zip(g.value(sparse).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "ProbSparse should deviate from full attention");
    }

    #[test]
    fn sparse_mask_keeps_top_u_rows() {
        let scores = [5.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 9.0];
        // Rows 0 and 2 have high max-mean; row 1 is uniform (measure 0).
        assert_eq!(lazy_query_rows(&scores, 3, 2), vec![false, true, false]);
    }

    #[test]
    fn non_finite_scores_rank_last_instead_of_panicking() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        // Rows: NaN, both infinities (measure NaN), a peaked row, +inf
        // against finite values (measure NaN: inf - inf), a flat row.
        let scores = [1.0, nan, 0.0, inf, -inf, 0.0, 3.0, 0.0, 0.0, inf, 1.0, 0.0, 2.0, 2.0, 2.0];
        assert_eq!(lazy_query_rows(&scores, 3, 2), vec![true, true, false, true, false]);
    }

    #[test]
    fn stacked_forward_matches_per_sample_forward_bitwise() {
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 8, 2, &mut rng());
        let n = 3;
        let (lq, lk) = (5, 9);
        let qd: Vec<f64> = (0..n * lq * 8).map(|i| ((i * 37 % 23) as f64 - 11.0) / 7.0).collect();
        let kd: Vec<f64> = (0..n * lk * 8).map(|i| ((i * 13 % 31) as f64 - 15.0) / 9.0).collect();
        for (kind, causal) in [
            (AttentionKind::Full, false),
            (AttentionKind::Full, true),
            (AttentionKind::ProbSparse { factor: 1 }, false),
        ] {
            let mut g = Graph::new();
            let q = g.input(Tensor::new(n * lq, 8, qd.clone()));
            let kv = g.input(Tensor::new(n * lk, 8, kd.clone()));
            let stacked = mha.forward(&mut g, &store, q, kv, kv, kind, causal, n);
            let stacked_val = g.value(stacked).clone();
            assert_eq!(stacked_val.shape(), (n * lq, 8));
            for i in 0..n {
                let mut g1 = Graph::new();
                let qi = g1.input(Tensor::new(lq, 8, qd[i * lq * 8..(i + 1) * lq * 8].to_vec()));
                let kvi = g1.input(Tensor::new(lk, 8, kd[i * lk * 8..(i + 1) * lk * 8].to_vec()));
                let one = mha.forward(&mut g1, &store, qi, kvi, kvi, kind, causal, 1);
                assert_eq!(
                    g1.value(one).data(),
                    &stacked_val.data()[i * lq * 8..(i + 1) * lq * 8],
                    "sample {i} diverged under {kind:?} causal={causal}"
                );
            }
        }
    }

    #[test]
    fn positional_encoding_properties() {
        let pe = positional_encoding(16, 8);
        assert_eq!(pe.shape(), (16, 8));
        // First position: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.get(0, 0), 0.0);
        assert_eq!(pe.get(0, 1), 1.0);
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0));
        // Distinct positions get distinct encodings.
        assert_ne!(pe.slice_rows(1, 2).data(), pe.slice_rows(2, 3).data());
    }

    #[test]
    fn attention_is_differentiable() {
        // End-to-end: gradients flow into all four projections.
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "attn", 4, 2, &mut rng());
        store.zero_grads();
        let mut g = Graph::new();
        let x = g.input(Tensor::new(3, 4, (0..12).map(|i| i as f64 * 0.1).collect()));
        let out = mha.forward(&mut g, &store, x, x, x, AttentionKind::Full, false, 1);
        let target = Tensor::zeros(3, 4);
        let loss = g.mse(out, &target);
        g.backward(loss, &mut store);
        for id in store.ids() {
            assert!(
                store.grad(id).data().iter().any(|&g| g != 0.0),
                "no grad for {}",
                store.name(id)
            );
        }
    }
}
