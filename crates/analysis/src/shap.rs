//! Exact TreeSHAP (Lundberg et al., Nature MI 2020, Algorithm 2) for the
//! gradient-boosted trees in `forecast::gboost`.
//!
//! The paper trains a GBoost model to predict TFE from the 42
//! characteristic differences and ranks characteristics by SHAP values
//! (§4.3.1, Figure 5). This module reproduces that attribution with the
//! polynomial-time path-dependent algorithm, validated against brute-force
//! Shapley enumeration in the tests.

use forecast::gboost::GbmRegressor;
use forecast::tree::{Node, RegressionTree};

#[derive(Debug, Clone, Copy)]
struct PathElement {
    /// Feature index (`usize::MAX` for the dummy root element).
    d: usize,
    /// Fraction of zero (feature absent) paths flowing through.
    z: f64,
    /// Fraction of one (feature present) paths flowing through.
    o: f64,
    /// Permutation weight.
    w: f64,
}

fn extend(m: &mut Vec<PathElement>, pz: f64, po: f64, pi: usize) {
    let l = m.len();
    m.push(PathElement { d: pi, z: pz, o: po, w: if l == 0 { 1.0 } else { 0.0 } });
    for i in (0..l).rev() {
        m[i + 1].w += po * m[i].w * (i + 1) as f64 / (l + 1) as f64;
        m[i].w = pz * m[i].w * (l - i) as f64 / (l + 1) as f64;
    }
}

fn unwind(m: &mut Vec<PathElement>, i: usize) {
    let l = m.len() - 1;
    let (o_i, z_i) = (m[i].o, m[i].z);
    let mut n = m[l].w;
    for j in (0..l).rev() {
        if o_i != 0.0 {
            let t = m[j].w;
            m[j].w = n * (l + 1) as f64 / ((j + 1) as f64 * o_i);
            n = t - m[j].w * z_i * (l - j) as f64 / (l + 1) as f64;
        } else {
            m[j].w = m[j].w * (l + 1) as f64 / (z_i * (l - j) as f64);
        }
    }
    for j in i..l {
        m[j].d = m[j + 1].d;
        m[j].z = m[j + 1].z;
        m[j].o = m[j + 1].o;
    }
    m.pop();
}

fn unwound_sum(m: &[PathElement], i: usize) -> f64 {
    let l = m.len() - 1;
    let (o_i, z_i) = (m[i].o, m[i].z);
    let mut total = 0.0;
    let mut n = m[l].w;
    for j in (0..l).rev() {
        if o_i != 0.0 {
            let t = n * (l + 1) as f64 / ((j + 1) as f64 * o_i);
            total += t;
            n = m[j].w - t * z_i * (l - j) as f64 / (l + 1) as f64;
        } else {
            total += m[j].w * (l + 1) as f64 / (z_i * (l - j) as f64);
        }
    }
    total
}

fn node_cover(nodes: &[Node], i: usize) -> f64 {
    match &nodes[i] {
        Node::Leaf { cover, .. } => *cover,
        Node::Split { cover, .. } => *cover,
    }
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    nodes: &[Node],
    j: usize,
    x: &[f64],
    phi: &mut [f64],
    m: &mut Vec<PathElement>,
    pz: f64,
    po: f64,
    pi: usize,
) {
    extend(m, pz, po, pi);
    match &nodes[j] {
        Node::Leaf { value, .. } => {
            for i in 1..m.len() {
                let w = unwound_sum(m, i);
                phi[m[i].d] += w * (m[i].o - m[i].z) * value;
            }
        }
        Node::Split { feature, threshold, left, right, cover } => {
            let (hot, cold) =
                if x[*feature] < *threshold { (*left, *right) } else { (*right, *left) };
            let mut iz = 1.0;
            let mut io = 1.0;
            // Skip the dummy element at index 0.
            if let Some(k) = (1..m.len()).find(|&k| m[k].d == *feature) {
                iz = m[k].z;
                io = m[k].o;
                unwind(m, k);
            }
            let r_hot = node_cover(nodes, hot) / cover;
            let r_cold = node_cover(nodes, cold) / cover;
            let mut m_hot = m.clone();
            recurse(nodes, hot, x, phi, &mut m_hot, iz * r_hot, io, *feature);
            let mut m_cold = m.clone();
            recurse(nodes, cold, x, phi, &mut m_cold, iz * r_cold, 0.0, *feature);
        }
    }
}

/// SHAP values of one tree for input `x` (length = feature count).
pub fn tree_shap(tree: &RegressionTree, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), tree.num_features(), "feature dimension mismatch");
    let mut phi = vec![0.0; tree.num_features()];
    let mut m = Vec::new();
    recurse(tree.nodes(), 0, x, &mut phi, &mut m, 1.0, 1.0, usize::MAX - 1);
    // The dummy feature index must never be written; guard via length.
    phi
}

/// SHAP values of a gradient-boosting ensemble: the sum of per-tree SHAP
/// values scaled by the learning rate (the base prediction carries no
/// attribution).
fn gbm_shap(model: &GbmRegressor, x: &[f64]) -> Vec<f64> {
    let mut phi = vec![0.0; model.num_features()];
    for tree in model.trees() {
        for (p, s) in phi.iter_mut().zip(tree_shap(tree, x)) {
            *p += model.learning_rate() * s;
        }
    }
    phi
}

/// Mean absolute SHAP value per feature over a dataset — the global
/// importance ranking of Figure 5.
pub fn mean_abs_shap(model: &GbmRegressor, features: &[f64], n_rows: usize) -> Vec<f64> {
    let nf = model.num_features();
    assert_eq!(features.len(), n_rows * nf, "feature matrix shape");
    let mut acc = vec![0.0; nf];
    for r in 0..n_rows {
        let phi = gbm_shap(model, &features[r * nf..(r + 1) * nf]);
        for (a, p) in acc.iter_mut().zip(phi) {
            *a += p.abs();
        }
    }
    for a in acc.iter_mut() {
        *a /= n_rows as f64;
    }
    acc
}

/// Tree expectation with a feature subset fixed to `x` (the value function
/// of path-dependent TreeSHAP). Public for the brute-force validation in
/// tests and for ad-hoc analyses.
pub fn expected_value(tree: &RegressionTree, x: &[f64], subset: &[bool]) -> f64 {
    fn rec(nodes: &[Node], i: usize, x: &[f64], subset: &[bool]) -> f64 {
        match &nodes[i] {
            Node::Leaf { value, .. } => *value,
            Node::Split { feature, threshold, left, right, cover } => {
                if subset[*feature] {
                    let next = if x[*feature] < *threshold { *left } else { *right };
                    rec(nodes, next, x, subset)
                } else {
                    let cl = node_cover(nodes, *left);
                    let cr = node_cover(nodes, *right);
                    (cl * rec(nodes, *left, x, subset) + cr * rec(nodes, *right, x, subset)) / cover
                }
            }
        }
    }
    rec(tree.nodes(), 0, x, subset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forecast::gboost::GbmConfig;
    use forecast::tree::TreeConfig;

    /// Brute-force Shapley values by subset enumeration (small M only).
    fn brute_force_shap(tree: &RegressionTree, x: &[f64]) -> Vec<f64> {
        let m = tree.num_features();
        assert!(m <= 12, "brute force only for small feature counts");
        let fact: Vec<f64> = {
            let mut f = vec![1.0];
            for i in 1..=m {
                let prev = f[i - 1];
                f.push(prev * i as f64);
            }
            f
        };
        let mut phi = vec![0.0; m];
        for i in 0..m {
            for mask in 0..(1u32 << m) {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let s = mask.count_ones() as usize;
                let mut subset = vec![false; m];
                for (j, b) in subset.iter_mut().enumerate() {
                    *b = mask & (1 << j) != 0;
                }
                let v_without = expected_value(tree, x, &subset);
                subset[i] = true;
                let v_with = expected_value(tree, x, &subset);
                let weight = fact[s] * fact[m - s - 1] / fact[m];
                phi[i] += weight * (v_with - v_without);
            }
        }
        phi
    }

    fn training_data(n: usize, nf: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut x = Vec::with_capacity(n * nf);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..nf).map(|_| rand() * 4.0).collect();
            // Target uses features 0 and 1 plus an interaction.
            let t = 2.0 * row[0]
                + if row[1] > 0.0 { 3.0 } else { -1.0 }
                + row[0] * row.get(2).copied().unwrap_or(0.0) * 0.5;
            x.extend_from_slice(&row);
            y.push(t);
        }
        (x, y)
    }

    #[test]
    fn treeshap_matches_brute_force() {
        let (x, y) = training_data(300, 4, 1);
        let tree = RegressionTree::fit(&x, &y, 4, TreeConfig { max_depth: 4, min_samples_leaf: 3 });
        for r in [0usize, 7, 42, 100] {
            let sample = &x[r * 4..(r + 1) * 4];
            let fast = tree_shap(&tree, sample);
            let brute = brute_force_shap(&tree, sample);
            for (f, b) in fast.iter().zip(&brute) {
                assert!((f - b).abs() < 1e-9, "fast {f} vs brute {b}");
            }
        }
    }

    #[test]
    fn treeshap_local_accuracy() {
        // sum(phi) = f(x) - E[f(x)] (the leaf-cover-weighted mean).
        let (x, y) = training_data(200, 5, 2);
        let tree = RegressionTree::fit(&x, &y, 5, TreeConfig { max_depth: 3, min_samples_leaf: 2 });
        let e_fx = expected_value(&tree, &x[..5], &[false; 5]);
        for r in [0usize, 11, 99] {
            let sample = &x[r * 5..(r + 1) * 5];
            let phi_sum: f64 = tree_shap(&tree, sample).iter().sum();
            let fx = tree.predict(sample);
            assert!(
                (phi_sum - (fx - e_fx)).abs() < 1e-9,
                "local accuracy: {phi_sum} vs {}",
                fx - e_fx
            );
        }
    }

    #[test]
    fn unused_features_get_zero_shap() {
        let (x, y) = training_data(300, 6, 3);
        // Target ignores features 3..6; a shallow tree will not split on
        // pure noise given the strong signal features.
        let tree = RegressionTree::fit(&x, &y, 6, TreeConfig { max_depth: 2, min_samples_leaf: 5 });
        let used: std::collections::HashSet<usize> = tree
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                Node::Leaf { .. } => None,
            })
            .collect();
        let phi = tree_shap(&tree, &x[..6]);
        for (f, &p) in phi.iter().enumerate() {
            if !used.contains(&f) {
                assert_eq!(p, 0.0, "feature {f} unused but has SHAP {p}");
            }
        }
    }

    #[test]
    fn gbm_shap_local_accuracy() {
        let (x, y) = training_data(400, 4, 4);
        let model =
            GbmRegressor::fit(&x, &y, 4, GbmConfig { n_estimators: 30, ..Default::default() });
        // E[f] = base + lr * sum of tree expectations over empty subset.
        let empty = [false; 4];
        let e_f: f64 = model.base()
            + model.learning_rate()
                * model.trees().iter().map(|t| expected_value(t, &x[..4], &empty)).sum::<f64>();
        let sample = &x[40..44];
        let phi_sum: f64 = gbm_shap(&model, sample).iter().sum();
        let fx = model.predict(sample);
        assert!((phi_sum - (fx - e_f)).abs() < 1e-9, "{phi_sum} vs {}", fx - e_f);
    }

    #[test]
    fn importance_ranks_signal_over_noise() {
        let (x, y) = training_data(500, 5, 5);
        let model =
            GbmRegressor::fit(&x, &y, 5, GbmConfig { n_estimators: 50, ..Default::default() });
        let imp = mean_abs_shap(&model, &x, 500);
        // Features 0 and 1 drive the target; 3 and 4 are pure noise.
        assert!(imp[0] > imp[3] * 3.0, "{imp:?}");
        assert!(imp[1] > imp[4] * 3.0, "{imp:?}");
    }
}
