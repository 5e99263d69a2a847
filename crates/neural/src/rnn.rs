//! Gated Recurrent Unit cell (Cho et al. 2014), the recurrent substrate of
//! the paper's encoder-decoder GRU forecaster.

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId, ParamId, ParamStore};
use crate::layers::glorot;
use crate::tensor::Tensor;

/// A GRU cell with input size `in_dim` and state size `hidden`.
///
/// Update equations (batch-major, `x: [n, in]`, `h: [n, hidden]`):
///
/// ```text
/// z = σ(x·Wxz + h·Whz + bz)          update gate
/// r = σ(x·Wxr + h·Whr + br)          reset gate
/// ĥ = tanh(x·Wxh + (r⊙h)·Whh + bh)   candidate state
/// h' = (1 − z)⊙h + z⊙ĥ
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    wxz: ParamId,
    whz: ParamId,
    bz: ParamId,
    wxr: ParamId,
    whr: ParamId,
    br: ParamId,
    wxh: ParamId,
    whh: ParamId,
    bh: ParamId,
}

impl GruCell {
    /// Registers the cell's nine parameter tensors.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut mk = |suffix: &str, r: usize, c: usize, rng: &mut StdRng| {
            store.add(&format!("{name}.{suffix}"), glorot(r, c, rng))
        };
        let wxz = mk("wxz", in_dim, hidden, rng);
        let whz = mk("whz", hidden, hidden, rng);
        let wxr = mk("wxr", in_dim, hidden, rng);
        let whr = mk("whr", hidden, hidden, rng);
        let wxh = mk("wxh", in_dim, hidden, rng);
        let whh = mk("whh", hidden, hidden, rng);
        let bz = store.add(&format!("{name}.bz"), Tensor::zeros(1, hidden));
        let br = store.add(&format!("{name}.br"), Tensor::zeros(1, hidden));
        let bh = store.add(&format!("{name}.bh"), Tensor::zeros(1, hidden));
        GruCell { wxz, whz, bz, wxr, whr, br, wxh, whh, bh }
    }

    /// The cell's nine parameters as graph nodes, in the order
    /// [`Self::step_with`] expects. Hoist this out of the time loop: a
    /// parameter node's value is a copy of the stored tensor, so cloning
    /// it once per graph instead of once per step changes nothing
    /// numerically (reuses of one node accumulate adjoints in the same
    /// reverse-step order that per-step clones flushed to the store).
    pub fn param_nodes(&self, g: &mut Graph, store: &ParamStore) -> [NodeId; 9] {
        [
            g.param(store, self.wxz),
            g.param(store, self.whz),
            g.param(store, self.bz),
            g.param(store, self.wxr),
            g.param(store, self.whr),
            g.param(store, self.br),
            g.param(store, self.wxh),
            g.param(store, self.whh),
            g.param(store, self.bh),
        ]
    }

    /// One recurrence step `(x_t, h_{t-1}) -> h_t` against pre-built
    /// parameter nodes.
    pub fn step_with(&self, g: &mut Graph, p: &[NodeId; 9], x: NodeId, h: NodeId) -> NodeId {
        let [wxz, whz, bz, wxr, whr, br, wxh, whh, bh] = *p;
        let gate = |g: &mut Graph, wxn: NodeId, whn: NodeId, bn: NodeId, x, h| {
            let xm = g.matmul(x, wxn);
            let hm = g.matmul(h, whn);
            let s = g.add(xm, hm);
            g.add_row(s, bn)
        };
        let z_lin = gate(g, wxz, whz, bz, x, h);
        let z = g.sigmoid(z_lin);
        let r_lin = gate(g, wxr, whr, br, x, h);
        let r = g.sigmoid(r_lin);

        let rh = g.mul(r, h);
        let xm = g.matmul(x, wxh);
        let hm = g.matmul(rh, whh);
        let cand_lin = g.add(xm, hm);
        let cand_lin = g.add_row(cand_lin, bh);
        let cand = g.tanh(cand_lin);

        let omz = g.one_minus(z);
        let keep = g.mul(omz, h);
        let update = g.mul(z, cand);
        g.add(keep, update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, AdamConfig};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// One step with freshly built parameter nodes.
    fn step(cell: &GruCell, g: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let nodes = cell.param_nodes(g, store);
        cell.step_with(g, &nodes, x, h)
    }

    /// Unrolls the cell over `[n, in]` inputs from a zero state, returning
    /// every hidden state.
    fn run(cell: &GruCell, g: &mut Graph, store: &ParamStore, xs: &[NodeId]) -> Vec<NodeId> {
        let n = g.value(xs[0]).rows();
        let hidden = store.value(cell.whz).rows();
        let mut h = g.input(Tensor::zeros(n, hidden));
        let nodes = cell.param_nodes(g, store);
        xs.iter()
            .map(|&x| {
                h = cell.step_with(g, &nodes, x, h);
                h
            })
            .collect()
    }

    #[test]
    fn step_shapes() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 5, &mut rng());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(4, 3));
        let h = g.input(Tensor::zeros(4, 5));
        let h2 = step(&cell, &mut g, &store, x, h);
        assert_eq!(g.value(h2).shape(), (4, 5));
    }

    #[test]
    fn zero_input_zero_state_stays_bounded() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 2, 4, &mut rng());
        let mut g = Graph::new();
        let xs: Vec<_> = (0..10).map(|_| g.input(Tensor::zeros(1, 2))).collect();
        let states = run(&cell, &mut g, &store, &xs);
        assert_eq!(states.len(), 10);
        for s in states {
            assert!(g.value(s).data().iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn gradcheck_through_two_steps() {
        // Finite-difference check of a 2-step GRU unroll.
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 2, 3, &mut rng());
        let x1 = Tensor::new(1, 2, vec![0.5, -0.3]);
        let x2 = Tensor::new(1, 2, vec![-0.2, 0.8]);
        let t = Tensor::new(1, 3, vec![0.1, -0.1, 0.2]);
        let build = |g: &mut Graph, s: &ParamStore| {
            let a = g.input(x1.clone());
            let b = g.input(x2.clone());
            let states = run(&cell, g, s, &[a, b]);
            g.mse(*states.last().expect("two steps"), &t)
        };
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, &store);
        g.backward(loss, &mut store);
        let auto: Vec<f64> = store.ids().flat_map(|id| store.grad(id).data().to_vec()).collect();

        let h = 1e-6;
        let mut k_global = 0;
        for id in store.ids().collect::<Vec<_>>() {
            for k in 0..store.value(id).len() {
                let orig = store.value(id).data()[k];
                store.value_mut(id).data_mut()[k] = orig + h;
                let mut g1 = Graph::new();
                let l1 = build(&mut g1, &store);
                let f1 = g1.value(l1).get(0, 0);
                store.value_mut(id).data_mut()[k] = orig - h;
                let mut g2 = Graph::new();
                let l2 = build(&mut g2, &store);
                let f2 = g2.value(l2).get(0, 0);
                store.value_mut(id).data_mut()[k] = orig;
                let num = (f1 - f2) / (2.0 * h);
                assert!(
                    (num - auto[k_global]).abs() < 1e-5 * (1.0 + num.abs()),
                    "grad mismatch at {k_global}: {num} vs {}",
                    auto[k_global]
                );
                k_global += 1;
            }
        }
    }

    #[test]
    fn gru_learns_to_remember_first_input() {
        // Task: output the first element of a 4-step sequence — requires
        // the gates to retain state.
        let mut r = rng();
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 1, 8, &mut r);
        let head = crate::layers::Dense::new(
            &mut store,
            "head",
            8,
            1,
            crate::layers::Activation::Identity,
            &mut r,
        );
        let mut adam =
            Adam::new(&store, AdamConfig { lr: 0.02, weight_decay: 0.0, ..Default::default() });
        use rand::RngExt;
        let mut last_loss = f64::INFINITY;
        for epoch in 0..300 {
            store.zero_grads();
            let mut g = Graph::new();
            let batch = 16;
            let firsts: Vec<f64> = (0..batch).map(|_| r.random::<f64>() * 2.0 - 1.0).collect();
            let xs: Vec<NodeId> = (0..4)
                .map(|t| {
                    let col: Vec<f64> = if t == 0 {
                        firsts.clone()
                    } else {
                        (0..batch).map(|_| r.random::<f64>() * 2.0 - 1.0).collect()
                    };
                    g.input(Tensor::col(&col))
                })
                .collect();
            let states = run(&cell, &mut g, &store, &xs);
            let y = head.forward(&mut g, &store, *states.last().expect("4 steps"));
            let target = Tensor::col(&firsts);
            let loss = g.mse(y, &target);
            last_loss = g.value(loss).get(0, 0);
            g.backward(loss, &mut store);
            adam.step(&mut store);
            let _ = epoch;
        }
        assert!(last_loss < 0.05, "GRU failed to learn memory task: {last_loss}");
    }
}
