//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Graph`] is built per forward pass: every operation appends a node
//! holding its computed value and the op descriptor. [`Graph::backward`]
//! walks the tape in reverse, propagating adjoints, and accumulates
//! parameter gradients into the shared [`ParamStore`]. This
//! define-by-run design matches how the forecasting models (GRU, NBeats,
//! Transformer, Informer, DLinear) construct different graphs per batch.

use std::ops::Range;

use crate::kernels;
use crate::tensor::Tensor;

/// Identifier of a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Identifier of a node in a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

/// Holds model parameters and their accumulated gradients.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.values.push(value);
        self.grads.push(Tensor::zeros(r, c));
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Zeroes all gradients (call before each backward pass).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// Global L2 norm of all gradients (for clipping).
    pub(crate) fn grad_norm(&self) -> f64 {
        self.grads.iter().map(|g| g.data().iter().map(|v| v * v).sum::<f64>()).sum::<f64>().sqrt()
    }

    /// Scales all gradients (for clipping).
    pub(crate) fn scale_grads(&mut self, k: f64) {
        for g in &mut self.grads {
            g.scale_assign(k);
        }
    }

    fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        self.grads[id.0].add_assign(grad);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Input,
    Param(ParamId),
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    /// `a [n,c] + bias [1,c]` broadcast over rows.
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    /// `a + k` for a constant `k`, applied at construction; backward only
    /// routes the gradient, so the tape keeps no copy of `k`.
    AddConst(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Relu(NodeId),
    Transpose(NodeId),
    HStack(NodeId, NodeId),
    VStack(NodeId, NodeId),
    SliceRows(NodeId, usize, usize),
    /// Mean squared error against a constant target, a `1×1` scalar.
    Mse(NodeId, Tensor),
    /// Inverted dropout with a precomputed 0/`1/keep` mask.
    Dropout(NodeId, Tensor),
    /// One attention head (see [`Graph::attention_head`]), boxed so that
    /// every other op's node stays as small as before.
    AttentionHead(Box<AttentionTape>),
    /// Row-wise layer normalization with `gamma`/`beta` `[1,c]` params;
    /// caches `(x_hat, inv_std)` for the backward pass.
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        x_hat: Tensor,
        inv_std: Vec<f64>,
    },
}

/// What an attention head keeps for its backward pass: the `[n·lq, lk]`
/// softmax probabilities and, under ProbSparse selection, one lazy flag
/// per query row (empty otherwise). The head's queries, keys and values
/// are gathered again from `q`, `k` and `v`, which stay on the tape.
#[derive(Debug, Clone)]
struct AttentionTape {
    q: NodeId,
    k: NodeId,
    v: NodeId,
    cols: Range<usize>,
    n: usize,
    scale: f64,
    probs: Tensor,
    lazy: Vec<bool>,
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    op: Op,
}

/// A define-by-run computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// The computed value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Adds a constant input.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Adds a parameter leaf (value copied from the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    pub(crate) fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `[1,c]` bias row to every row of `a`.
    pub(crate) fn add_row(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (n, c) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, c), "bias must be 1x{c}");
        let mut v = self.value(a).clone();
        let brow = self.value(bias).data().to_vec();
        for r in 0..n {
            kernels::axpy(1.0, &brow, &mut v.data_mut()[r * c..(r + 1) * c]);
        }
        self.push(v, Op::AddRow(a, bias))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub(crate) fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub(crate) fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.value(a).map(|x| x * k);
        self.push(v, Op::Scale(a, k))
    }

    /// Adds a scalar constant.
    fn add_const(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.value(a).map(|x| x + k);
        self.push(v, Op::AddConst(a))
    }

    /// `1 - a`, the gate complement used by GRU.
    pub(crate) fn one_minus(&mut self, a: NodeId) -> NodeId {
        let neg = self.scale(a, -1.0);
        self.add_const(neg, 1.0)
    }

    /// Hyperbolic tangent.
    pub(crate) fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub(crate) fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Rectified linear unit.
    pub(crate) fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Column concatenation.
    pub fn hstack(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).hstack(self.value(b));
        self.push(v, Op::HStack(a, b))
    }

    /// Row concatenation.
    pub fn vstack(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).vstack(self.value(b));
        self.push(v, Op::VStack(a, b))
    }

    /// One attention head over `n` samples stacked row-wise, returning
    /// the `[n·lq, cols.len()]` head output. Columns `cols` of `q`
    /// (`[n·lq, d]`), `k` and `v` (`[n·lk, d]`) are the head's queries,
    /// keys and values; sample `i` owns query rows `i·lq..(i+1)·lq` and
    /// key rows `i·lk..(i+1)·lk`. Per sample block, in this order:
    ///
    /// 1. scores `q_h·k_hᵀ` through [`kernels::matmul_nt`], times `scale`;
    /// 2. ProbSparse, when `sparse_u` is `Some(u)` with `u < lq`: every
    ///    query row outside the `u` with the largest measure
    ///    `max − mean` of its scores (Informer Eq. 4) is multiplied by
    ///    0.0, and kept rows by 1.0, so a lazy row's softmax is uniform;
    /// 3. causal: 0.0 is added to the keys up to the query's
    ///    right-aligned diagonal (offset `lk − min(lq, lk)`) and −1e9 to
    ///    the rest;
    /// 4. a numerically stabilized softmax per row;
    /// 5. the product with `v_h` through [`kernels::matmul`].
    ///
    /// These are the floating-point operations of the unfused chain
    /// (slice, transpose, matmul, scale, mask multiply, mask add, softmax,
    /// matmul), in its order and with literal multiplies and adds, so
    /// signed zeros and NaNs come out as that chain gives them. The tape
    /// keeps only the probabilities.
    ///
    /// # Panics
    /// Panics when `n` is zero, the row counts are not divisible by `n`,
    /// `k` and `v` differ in shape, or `cols` is empty or out of range.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attention_head(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        cols: Range<usize>,
        n: usize,
        scale: f64,
        sparse_u: Option<usize>,
        causal: bool,
    ) -> NodeId {
        let (q_rows, width) = self.value(q).shape();
        let k_rows = self.value(k).rows();
        assert!(n > 0, "attention needs at least one sample");
        assert_eq!(self.value(k).shape(), self.value(v).shape(), "keys and values differ in shape");
        assert_eq!(self.value(k).cols(), width, "queries and keys differ in width");
        assert!(!cols.is_empty() && cols.end <= width, "head columns {cols:?} of {width}");
        assert!(
            q_rows.is_multiple_of(n) && k_rows.is_multiple_of(n),
            "stacked rows ({q_rows}, {k_rows}) not divisible by {n} samples"
        );
        let (lq, lk, dh) = (q_rows / n, k_rows / n, cols.len());
        let qh = self.value(q).slice_cols(cols.start, cols.end);
        let kh = self.value(k).slice_cols(cols.start, cols.end);
        let vh = self.value(v).slice_cols(cols.start, cols.end);
        let sparse_u = sparse_u.filter(|&u| u < lq);
        let mut probs = Tensor::zeros(n * lq, lk);
        let mut lazy = Vec::new();
        let mut out = Tensor::zeros(n * lq, dh);
        for i in 0..n {
            let (qb, kb) = (i * lq * dh..(i + 1) * lq * dh, i * lk * dh..(i + 1) * lk * dh);
            let s = &mut probs.data_mut()[i * lq * lk..(i + 1) * lq * lk];
            kernels::matmul_nt(&qh.data()[qb.clone()], &kh.data()[kb.clone()], s, lq, dh, lk);
            for x in s.iter_mut() {
                *x *= scale;
            }
            if let Some(u) = sparse_u {
                let block_lazy = crate::attention::lazy_query_rows(s, lk, u);
                for (row, &is_lazy) in s.chunks_exact_mut(lk).zip(&block_lazy) {
                    let keep = if is_lazy { 0.0 } else { 1.0 };
                    for x in row {
                        *x *= keep;
                    }
                }
                lazy.extend(block_lazy);
            }
            if causal {
                let offset = lk - lq.min(lk);
                for (r, row) in s.chunks_exact_mut(lk).enumerate() {
                    let masked_from = (r + offset + 1).min(lk);
                    for (j, x) in row.iter_mut().enumerate() {
                        *x += if j < masked_from { 0.0 } else { -1e9 };
                    }
                }
            }
            s.chunks_exact_mut(lk).for_each(softmax_row);
            kernels::matmul(s, &vh.data()[kb], &mut out.data_mut()[qb], lq, lk, dh);
        }
        let tape = AttentionTape { q, k, v, cols, n, scale, probs, lazy };
        self.push(out, Op::AttentionHead(Box::new(tape)))
    }

    /// Row slice `start..end`.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        let v = self.value(a).slice_rows(start, end);
        self.push(v, Op::SliceRows(a, start, end))
    }

    /// Mean squared error against a constant target (`1×1`).
    pub fn mse(&mut self, pred: NodeId, target: &Tensor) -> NodeId {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "mse shape mismatch");
        let sse: f64 = p.data().iter().zip(target.data()).map(|(a, b)| (a - b) * (a - b)).sum();
        let v = Tensor::new(1, 1, vec![sse / p.len() as f64]);
        self.push(v, Op::Mse(pred, target.clone()))
    }

    /// Inverted dropout with a caller-supplied Bernoulli mask already scaled
    /// by `1/keep_prob` (pass all-ones at inference).
    pub(crate) fn dropout(&mut self, a: NodeId, mask: Tensor) -> NodeId {
        assert_eq!(self.value(a).shape(), mask.shape(), "dropout mask shape");
        let v = self.value(a).zip(&mask, |x, m| x * m);
        self.push(v, Op::Dropout(a, mask))
    }

    /// Row-wise layer normalization: `(x - mean) / std * gamma + beta`,
    /// with `gamma`/`beta` `[1,c]` parameter nodes.
    pub(crate) fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        const EPS: f64 = 1e-5;
        let xv = self.value(x);
        let (n, c) = xv.shape();
        assert_eq!(self.value(gamma).shape(), (1, c), "gamma shape");
        assert_eq!(self.value(beta).shape(), (1, c), "beta shape");
        let mut x_hat = Tensor::zeros(n, c);
        let mut inv_std = Vec::with_capacity(n);
        let mut out = Tensor::zeros(n, c);
        let grow = self.value(gamma).data().to_vec();
        let brow = self.value(beta).data().to_vec();
        for r in 0..n {
            let xrow = &xv.data()[r * c..(r + 1) * c];
            let mean: f64 = xrow.iter().sum::<f64>() / c as f64;
            let var: f64 = xrow.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / c as f64;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std.push(istd);
            let hrow = &mut x_hat.data_mut()[r * c..(r + 1) * c];
            let orow = &mut out.data_mut()[r * c..(r + 1) * c];
            for j in 0..c {
                let xh = (xrow[j] - mean) * istd;
                hrow[j] = xh;
                orow[j] = xh * grow[j] + brow[j];
            }
        }
        self.push(out, Op::LayerNorm { x, gamma, beta, x_hat, inv_std })
    }

    /// Runs reverse-mode differentiation from `root` (which must be `1×1`),
    /// accumulating parameter gradients into `store`.
    ///
    /// # Panics
    /// Panics if `root` is not a scalar node.
    pub fn backward(&self, root: NodeId, store: &mut ParamStore) {
        assert_eq!(self.value(root).shape(), (1, 1), "backward root must be scalar");
        let mut adjoints: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        adjoints[root.0] = Some(Tensor::new(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = adjoints[i].take() else { continue };
            let accum =
                |adjoints: &mut Vec<Option<Tensor>>, id: NodeId, g: Tensor| match &mut adjoints
                    [id.0]
                {
                    Some(existing) => existing.add_assign(&g),
                    slot @ None => *slot = Some(g),
                };
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate(*pid, &grad),
                Op::MatMul(a, b) => {
                    // grad·Bᵀ and Aᵀ·grad via the layout-aware kernels:
                    // neither transpose is materialized.
                    let ga = grad.matmul_nt(self.value(*b));
                    let gb = self.value(*a).matmul_tn(&grad);
                    accum(&mut adjoints, *a, ga);
                    accum(&mut adjoints, *b, gb);
                }
                Op::Add(a, b) => {
                    accum(&mut adjoints, *a, grad.clone());
                    accum(&mut adjoints, *b, grad);
                }
                Op::AddRow(a, bias) => {
                    let (n, c) = grad.shape();
                    let mut gb = Tensor::zeros(1, c);
                    for r in 0..n {
                        let grow = &grad.data()[r * c..(r + 1) * c];
                        kernels::axpy(1.0, grow, gb.data_mut());
                    }
                    accum(&mut adjoints, *a, grad);
                    accum(&mut adjoints, *bias, gb);
                }
                Op::Sub(a, b) => {
                    accum(&mut adjoints, *a, grad.clone());
                    accum(&mut adjoints, *b, grad.map(|g| -g));
                }
                Op::Mul(a, b) => {
                    let ga = grad.zip(self.value(*b), |g, y| g * y);
                    let gb = grad.zip(self.value(*a), |g, x| g * x);
                    accum(&mut adjoints, *a, ga);
                    accum(&mut adjoints, *b, gb);
                }
                Op::Scale(a, k) => accum(&mut adjoints, *a, grad.map(|g| g * k)),
                Op::AddConst(a) => accum(&mut adjoints, *a, grad),
                Op::Tanh(a) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g * (1.0 - y * y));
                    accum(&mut adjoints, *a, g);
                }
                Op::Sigmoid(a) => {
                    let g = grad.zip(&self.nodes[i].value, |g, y| g * y * (1.0 - y));
                    accum(&mut adjoints, *a, g);
                }
                Op::Relu(a) => {
                    let g = grad.zip(self.value(*a), |g, x| if x > 0.0 { g } else { 0.0 });
                    accum(&mut adjoints, *a, g);
                }
                Op::AttentionHead(tape) => {
                    let AttentionTape { q, k, v, cols, n, scale, probs, lazy } = &**tape;
                    // Reverse order of the forward steps, per sample block:
                    // the value product, the softmax, the lazy-row multiply
                    // (the causal add passes the gradient through), the
                    // scale, and the score product.
                    let (lq, lk, dh) = (probs.rows() / n, probs.cols(), cols.len());
                    let qh = self.value(*q).slice_cols(cols.start, cols.end);
                    let kh = self.value(*k).slice_cols(cols.start, cols.end);
                    let vh = self.value(*v).slice_cols(cols.start, cols.end);
                    let mut gq = Tensor::zeros(n * lq, dh);
                    let mut gk = Tensor::zeros(n * lk, dh);
                    let mut gv = Tensor::zeros(n * lk, dh);
                    let mut gs = vec![0.0; lq * lk];
                    let mut gkt = vec![0.0; dh * lk];
                    for i in 0..*n {
                        let (qb, kb) =
                            (i * lq * dh..(i + 1) * lq * dh, i * lk * dh..(i + 1) * lk * dh);
                        let p = &probs.data()[i * lq * lk..(i + 1) * lq * lk];
                        let go = &grad.data()[qb.clone()];
                        kernels::matmul_nt(go, &vh.data()[kb.clone()], &mut gs, lq, dh, lk);
                        kernels::matmul_tn(p, go, &mut gv.data_mut()[kb.clone()], lk, lq, dh);
                        for (grow, prow) in gs.chunks_exact_mut(lk).zip(p.chunks_exact(lk)) {
                            let dot = kernels::dot(grow, prow);
                            for (g, &y) in grow.iter_mut().zip(prow) {
                                *g = y * (*g - dot);
                            }
                        }
                        if !lazy.is_empty() {
                            let block_lazy = &lazy[i * lq..(i + 1) * lq];
                            for (grow, &is_lazy) in gs.chunks_exact_mut(lk).zip(block_lazy) {
                                let keep = if is_lazy { 0.0 } else { 1.0 };
                                for g in grow {
                                    *g *= keep;
                                }
                            }
                        }
                        for g in gs.iter_mut() {
                            *g *= scale;
                        }
                        kernels::matmul(
                            &gs,
                            &kh.data()[kb.clone()],
                            &mut gq.data_mut()[qb.clone()],
                            lq,
                            lk,
                            dh,
                        );
                        kernels::matmul_tn(&qh.data()[qb], &gs, &mut gkt, dh, lq, lk);
                        kernels::transpose(&gkt, &mut gk.data_mut()[kb], dh, lk);
                    }
                    // Each gradient enters a zero tensor as wide as its
                    // input, so heads sharing an input accumulate by adding
                    // whole tensors, zeros included.
                    let width = self.value(*q).cols();
                    accum(&mut adjoints, *v, zero_pad_cols(&gv, width, cols));
                    accum(&mut adjoints, *k, zero_pad_cols(&gk, width, cols));
                    accum(&mut adjoints, *q, zero_pad_cols(&gq, width, cols));
                }
                Op::Transpose(a) => accum(&mut adjoints, *a, grad.transpose()),
                Op::HStack(a, b) => {
                    let ca = self.value(*a).cols();
                    accum(&mut adjoints, *a, grad.slice_cols(0, ca));
                    accum(&mut adjoints, *b, grad.slice_cols(ca, grad.cols()));
                }
                Op::VStack(a, b) => {
                    let ra = self.value(*a).rows();
                    accum(&mut adjoints, *a, grad.slice_rows(0, ra));
                    accum(&mut adjoints, *b, grad.slice_rows(ra, grad.rows()));
                }
                Op::SliceRows(a, start, end) => {
                    let (n, c) = self.value(*a).shape();
                    let mut g = Tensor::zeros(n, c);
                    g.data_mut()[start * c..end * c].copy_from_slice(grad.data());
                    accum(&mut adjoints, *a, g);
                }
                Op::Mse(a, target) => {
                    let p = self.value(*a);
                    let k = 2.0 * grad.get(0, 0) / p.len() as f64;
                    let g = p.zip(target, |x, t| k * (x - t));
                    accum(&mut adjoints, *a, g);
                }
                Op::Dropout(a, mask) => {
                    accum(&mut adjoints, *a, grad.zip(mask, |g, m| g * m));
                }
                Op::LayerNorm { x, gamma, beta, x_hat, inv_std } => {
                    let (n, c) = grad.shape();
                    let gv = self.value(*gamma).data();
                    let mut g_gamma = Tensor::zeros(1, c);
                    let mut g_beta = Tensor::zeros(1, c);
                    let mut g_x = Tensor::zeros(n, c);
                    let mut dxhat = vec![0.0; c];
                    for (r, &istd) in inv_std.iter().enumerate().take(n) {
                        let grow = &grad.data()[r * c..(r + 1) * c];
                        let hrow = &x_hat.data()[r * c..(r + 1) * c];
                        // dL/dx_hat = grad * gamma
                        for j in 0..c {
                            dxhat[j] = grow[j] * gv[j];
                        }
                        let mean_dxhat: f64 = dxhat.iter().sum::<f64>() / c as f64;
                        let mean_dxhat_xhat = kernels::dot(&dxhat, hrow) / c as f64;
                        let ggrow = g_gamma.data_mut();
                        for j in 0..c {
                            ggrow[j] += grow[j] * hrow[j];
                        }
                        kernels::axpy(1.0, grow, g_beta.data_mut());
                        let gxrow = &mut g_x.data_mut()[r * c..(r + 1) * c];
                        for j in 0..c {
                            gxrow[j] = istd * (dxhat[j] - mean_dxhat - hrow[j] * mean_dxhat_xhat);
                        }
                    }
                    accum(&mut adjoints, *x, g_x);
                    accum(&mut adjoints, *gamma, g_gamma);
                    accum(&mut adjoints, *beta, g_beta);
                }
            }
        }
    }
}

/// Softmax of one row in place, stabilized by the row maximum: each entry
/// becomes `exp(x − max)`, summed left to right, then scaled by the
/// reciprocal of the sum. Two exact shortcuts skip `exp`: a zero
/// difference gives 1.0 (`exp(±0)` is exactly one; this covers each row's
/// maximum and every ProbSparse lazy row), and a difference below −746
/// gives +0.0, where `exp` underflows to +0 (this covers causally masked
/// keys). NaN still goes through `exp`.
fn softmax_row(row: &mut [f64]) {
    let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut s = 0.0;
    for x in row.iter_mut() {
        let d = *x - m;
        *x = if d == 0.0 {
            1.0
        } else if d < -746.0 {
            0.0
        } else {
            d.exp()
        };
        s += *x;
    }
    let inv = 1.0 / s;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Places the `[rows, cols.len()]` block `g` at columns `cols` of a zero
/// `[rows, width]` tensor.
fn zero_pad_cols(g: &Tensor, width: usize, cols: &Range<usize>) -> Tensor {
    let (rows, w) = g.shape();
    let mut out = Tensor::zeros(rows, width);
    for r in 0..rows {
        out.data_mut()[r * width + cols.start..r * width + cols.end]
            .copy_from_slice(&g.data()[r * w..(r + 1) * w]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check: perturb each parameter scalar and
    /// compare the numerical gradient of `f` with the autodiff gradient.
    fn grad_check<F>(store: &mut ParamStore, build: F, tol: f64)
    where
        F: Fn(&mut Graph, &ParamStore) -> NodeId,
    {
        // Autodiff gradients.
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss, store);
        let auto: Vec<Tensor> = store.ids().map(|id| store.grad(id).clone()).collect();

        // Numerical gradients.
        let h = 1e-6;
        for id in store.ids().collect::<Vec<_>>() {
            for k in 0..store.value(id).len() {
                let orig = store.value(id).data()[k];
                store.value_mut(id).data_mut()[k] = orig + h;
                let mut g1 = Graph::new();
                let l1 = build(&mut g1, store);
                let f1 = g1.value(l1).get(0, 0);
                store.value_mut(id).data_mut()[k] = orig - h;
                let mut g2 = Graph::new();
                let l2 = build(&mut g2, store);
                let f2 = g2.value(l2).get(0, 0);
                store.value_mut(id).data_mut()[k] = orig;
                let num = (f1 - f2) / (2.0 * h);
                let aut = auto[id.0].data()[k];
                assert!(
                    (num - aut).abs() < tol * (1.0 + num.abs().max(aut.abs())),
                    "param {} elem {k}: numerical {num} vs autodiff {aut}",
                    store.name(id),
                );
            }
        }
    }

    fn seeded(vals: &[f64], rows: usize, cols: usize) -> Tensor {
        Tensor::new(rows, cols, vals.to_vec())
    }

    #[test]
    fn grad_dense_tanh_mse() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[0.3, -0.2, 0.5, 0.1, 0.4, -0.6], 2, 3));
        let b = store.add("b", seeded(&[0.05, -0.05, 0.2], 1, 3));
        let x = seeded(&[1.0, 2.0, -1.0, 0.5], 2, 2);
        let t = seeded(&[0.1, 0.2, 0.3, -0.1, 0.0, 0.4], 2, 3);
        grad_check(
            &mut store,
            move |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let bi = g.param(s, b);
                let y = g.matmul(xi, wi);
                let y = g.add_row(y, bi);
                let y = g.tanh(y);
                g.mse(y, &t)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_sigmoid_relu_mix() {
        let mut store = ParamStore::new();
        let w1 = store.add("w1", seeded(&[0.2, -0.4, 0.7, 0.3], 2, 2));
        let w2 = store.add("w2", seeded(&[0.5, -0.1, -0.3, 0.8], 2, 2));
        let x = seeded(&[0.6, -1.2, 0.9, 0.1], 2, 2);
        let t = seeded(&[0.2, 0.4, -0.3, 0.1], 2, 2);
        grad_check(
            &mut store,
            move |g, s| {
                let xi = g.input(x.clone());
                let w1i = g.param(s, w1);
                let w2i = g.param(s, w2);
                let h = g.matmul(xi, w1i);
                let h = g.sigmoid(h);
                let h2 = g.matmul(h, w2i);
                let h2 = g.relu(h2);
                g.mse(h2, &t)
            },
            1e-4, // relu kinks reduce FD accuracy
        );
    }

    #[test]
    fn grad_softmax_attention_shape() {
        // A tiny attention computation: softmax(QKᵀ/√2)V in one head.
        let mut store = ParamStore::new();
        let q = store.add("q", seeded(&[0.1, 0.5, -0.3, 0.2, 0.4, -0.1], 3, 2));
        let k = store.add("k", seeded(&[0.3, -0.2, 0.6, 0.1, -0.4, 0.5], 3, 2));
        let v = store.add("v", seeded(&[1.0, 0.0, 0.5, -0.5, 0.2, 0.8], 3, 2));
        let t = seeded(&[0.1; 6], 3, 2);
        grad_check(
            &mut store,
            move |g, s| {
                let qi = g.param(s, q);
                let ki = g.param(s, k);
                let vi = g.param(s, v);
                let out = g.attention_head(qi, ki, vi, 0..2, 1, 1.0 / 2f64.sqrt(), None, false);
                g.mse(out, &t)
            },
            1e-5,
        );
    }

    /// Two samples of 3 queries over 4 keys, in a head that reads columns
    /// 1..3 of 4-wide inputs.
    fn attention_grad_check(sparse_u: Option<usize>, causal: bool) {
        let vals = |salt: usize, rows: usize| -> Tensor {
            let data =
                (0..rows * 4).map(|i| (((i * 7 + salt * 5) % 11) as f64 - 5.0) / 6.0).collect();
            Tensor::new(rows, 4, data)
        };
        let mut store = ParamStore::new();
        let q = store.add("q", vals(1, 6));
        let k = store.add("k", vals(2, 8));
        let v = store.add("v", vals(3, 8));
        let t = seeded(&[0.2, -0.1, 0.3, 0.0, -0.2, 0.1, 0.4, 0.2, -0.3, 0.1, 0.0, 0.5], 6, 2);
        grad_check(
            &mut store,
            move |g, s| {
                let qi = g.param(s, q);
                let ki = g.param(s, k);
                let vi = g.param(s, v);
                let out = g.attention_head(qi, ki, vi, 1..3, 2, 0.7, sparse_u, causal);
                g.mse(out, &t)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_attention_head_full() {
        attention_grad_check(None, false);
    }

    #[test]
    fn grad_attention_head_causal() {
        attention_grad_check(None, true);
    }

    #[test]
    fn grad_attention_head_probsparse() {
        // One of each block's three queries stays active.
        attention_grad_check(Some(1), false);
    }

    #[test]
    fn probsparse_lazy_rows_attend_uniformly() {
        let mut g = Graph::new();
        let q = g.input(seeded(&[2.0, 0.0, 0.1, 0.0, -1.5, 0.3], 3, 2));
        let k = g.input(seeded(&[1.0, 0.5, -1.0, 0.2, 0.3, -0.4, 0.0, 1.0], 4, 2));
        let v = g.input(seeded(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 4, 2));
        let out = g.attention_head(q, k, v, 0..2, 1, 1.0, Some(1), false);
        // Query 0 has the widest score spread; queries 1 and 2 are lazy
        // and return the mean of the values.
        let y = g.value(out);
        assert_eq!(y.get(1, 0), (1.0 + 3.0 + 5.0 + 7.0) * 0.25);
        assert_eq!(y.get(2, 1), (2.0 + 4.0 + 6.0 + 8.0) * 0.25);
        assert_ne!(y.get(0, 0), y.get(1, 0));
    }

    #[test]
    fn softmax_shortcuts_match_exp() {
        // `exp` underflows to +0 everywhere below the cut, not just far below.
        let just_below = f64::from_bits((-746.0f64).to_bits() + 1);
        for d in (0..2000).map(|i| -746.0 - i as f64 * 0.5).chain([just_below, -1e9]) {
            assert_eq!(d.exp().to_bits(), 0.0f64.to_bits(), "exp({d})");
        }
        for d in [0.0, -0.0, just_below, -1e9, f64::NEG_INFINITY, -745.0, -1e-300] {
            let mut row = [0.0, d];
            softmax_row(&mut row);
            let e = d.exp();
            assert_eq!(row[1].to_bits(), (e * (1.0 / (1.0 + e))).to_bits(), "d = {d}");
        }
    }

    #[test]
    fn grad_layernorm() {
        let mut store = ParamStore::new();
        let x = store.add("x", seeded(&[1.0, 2.0, 4.0, -1.0, 0.5, 3.0], 2, 3));
        let gamma = store.add("gamma", seeded(&[1.2, 0.8, 1.0], 1, 3));
        let beta = store.add("beta", seeded(&[0.1, -0.1, 0.0], 1, 3));
        let t = seeded(&[0.5, -0.5, 0.2, 0.1, 0.3, -0.2], 2, 3);
        grad_check(
            &mut store,
            move |g, s| {
                let xi = g.param(s, x);
                let gi = g.param(s, gamma);
                let bi = g.param(s, beta);
                let y = g.layer_norm(xi, gi, bi);
                g.mse(y, &t)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_gru_like_gates() {
        // z = sigmoid(x W_z), h_cand = tanh(x W_h), h = (1-z)*h0 + z*h_cand
        let mut store = ParamStore::new();
        let wz = store.add("wz", seeded(&[0.4, -0.2, 0.1, 0.6], 2, 2));
        let wh = store.add("wh", seeded(&[-0.3, 0.5, 0.2, -0.1], 2, 2));
        let x = seeded(&[0.7, -0.4, 1.1, 0.2], 2, 2);
        let h0 = seeded(&[0.1, 0.3, -0.2, 0.5], 2, 2);
        let t = seeded(&[0.0, 0.1, 0.2, 0.3], 2, 2);
        grad_check(
            &mut store,
            move |g, s| {
                let xi = g.input(x.clone());
                let h0i = g.input(h0.clone());
                let wzi = g.param(s, wz);
                let whi = g.param(s, wh);
                let zl = g.matmul(xi, wzi);
                let z = g.sigmoid(zl);
                let hl = g.matmul(xi, whi);
                let hc = g.tanh(hl);
                let omz = g.one_minus(z);
                let a = g.mul(omz, h0i);
                let b = g.mul(z, hc);
                let h = g.add(a, b);
                g.mse(h, &t)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_stacks_and_slices() {
        // Two heads read disjoint column ranges of the same inputs, and
        // their outputs are concatenated, as multi-head attention does:
        // each head's gradient lands in its own columns.
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[0.3, -0.7, 0.2, 0.9, 0.5, -0.1, 0.4, 0.6], 2, 4));
        let x = seeded(&[1.0, -0.5, 0.3, 0.8, -0.2, 0.6], 3, 2);
        let t = seeded(&[0.2, 0.1, 0.4, -0.3, 0.0, 0.5, 0.1, -0.2, 0.3, 0.2, -0.1, 0.4], 3, 4);
        grad_check(
            &mut store,
            move |g, s| {
                let xi = g.input(x.clone());
                let wi = g.param(s, w);
                let y = g.matmul(xi, wi); // 3x4
                let left = g.attention_head(y, y, y, 0..2, 1, 0.5, None, false);
                let right = g.attention_head(y, y, y, 2..4, 1, 0.5, None, false);
                let h = g.hstack(left, right); // 3x4
                g.mse(h, &t)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_mean_and_scale() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[2.0, -3.0, 1.0, 4.0], 2, 2));
        grad_check(
            &mut store,
            move |g, s| {
                let wi = g.param(s, w);
                let sq = g.mul(wi, wi);
                let sc = g.scale(sq, 0.5);
                let sh = g.add_const(sc, 1.0);
                g.mse(sh, &Tensor::zeros(2, 2))
            },
            1e-6,
        );
    }

    #[test]
    fn grad_vstack_slice_rows() {
        let mut store = ParamStore::new();
        let a = store.add("a", seeded(&[1.0, 2.0], 1, 2));
        let b = store.add("b", seeded(&[3.0, 4.0], 1, 2));
        let t = seeded(&[0.0, 0.0], 1, 2);
        grad_check(
            &mut store,
            move |g, s| {
                let ai = g.param(s, a);
                let bi = g.param(s, b);
                let st = g.vstack(ai, bi); // 2x2
                let second = g.slice_rows(st, 1, 2);
                let sum = g.add(second, ai);
                g.mse(sum, &t)
            },
            1e-6,
        );
    }

    #[test]
    fn dropout_mask_applies_and_routes_grads() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[1.0, 2.0, 3.0, 4.0], 1, 4));
        let mask = seeded(&[2.0, 0.0, 2.0, 0.0], 1, 4); // keep=0.5 inverted
        store.zero_grads();
        let mut g = Graph::new();
        let wi = g.param(&store, w);
        let d = g.dropout(wi, mask);
        assert_eq!(g.value(d).data(), &[2.0, 0.0, 6.0, 0.0]);
        let t = Tensor::zeros(1, 4);
        let loss = g.mse(d, &t);
        g.backward(loss, &mut store);
        // Gradient through dropped elements must be zero.
        let grads = store.grad(w).data();
        assert_eq!(grads[1], 0.0);
        assert_eq!(grads[3], 0.0);
        assert!(grads[0] != 0.0);
    }

    #[test]
    fn param_reused_twice_accumulates() {
        // loss = mean((w + w)^2) -> dL/dw = 8w/len, checks adjoint fan-in.
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[1.0, -2.0], 1, 2));
        grad_check(
            &mut store,
            move |g, s| {
                let wi = g.param(s, w);
                let s2 = g.add(wi, wi);
                g.mse(s2, &Tensor::zeros(1, 2))
            },
            1e-6,
        );
    }

    #[test]
    fn grad_norm_and_clipping_helpers() {
        let mut store = ParamStore::new();
        let w = store.add("w", seeded(&[3.0, 4.0], 1, 2));
        store.zero_grads();
        let mut g = Graph::new();
        let wi = g.param(&store, w);
        let loss = g.mse(wi, &Tensor::zeros(1, 2));
        g.backward(loss, &mut store);
        // d/dw mean(w^2) = 2w/2 = w
        assert!((store.grad_norm() - 5.0).abs() < 1e-9);
        store.scale_grads(0.5);
        assert!((store.grad_norm() - 2.5).abs() < 1e-9);
        store.zero_grads();
        assert_eq!(store.grad_norm(), 0.0);
    }
}
