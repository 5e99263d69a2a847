//! CART regression trees: the base learners for gradient boosting (§3.4
//! "simple decision trees as the basic predictors") and the structure the
//! `analysis` crate's TreeSHAP implementation walks.

/// Tree growth limits.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 3, min_samples_leaf: 5 }
    }
}

/// A node in the arena representation. Leaves carry predictions; internal
/// nodes route on `feature < threshold`.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node with its predicted value.
    Leaf {
        /// Mean target of the training samples that reached this leaf.
        value: f64,
        /// Number of training samples that reached this leaf.
        cover: f64,
    },
    /// Internal split: `x[feature] < threshold` goes left, else right.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
        /// Number of training samples that reached this node.
        cover: f64,
    },
}

/// Pre-binned feature matrix for fast histogram-based split finding
/// (the strategy of LightGBM-class boosters). Built once per ensemble and
/// shared by every tree.
#[derive(Debug, Clone)]
pub(crate) struct BinnedFeatures {
    /// Per-sample per-feature bin codes, row-major `n × f`.
    codes: Vec<u16>,
    /// Split thresholds: `thresholds[f][b]` separates bins `<= b` from
    /// `> b` in original feature units.
    thresholds: Vec<Vec<f64>>,
    n: usize,
    f: usize,
}

impl BinnedFeatures {
    /// Bins `features` (row-major `n × f`) into at most `max_bins`
    /// quantile bins per feature.
    pub(crate) fn build(features: &[f64], n: usize, f: usize, max_bins: usize) -> Self {
        assert_eq!(features.len(), n * f, "feature matrix shape");
        let max_bins = max_bins.clamp(2, u16::MAX as usize);
        let mut thresholds = Vec::with_capacity(f);
        for feat in 0..f {
            let mut vals: Vec<f64> = (0..n).map(|r| features[r * f + feat]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN features"));
            vals.dedup();
            let cuts = if vals.len() <= max_bins {
                // One bin per distinct value: cut between neighbours.
                vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                (1..max_bins)
                    .map(|b| {
                        let idx = b * vals.len() / max_bins;
                        (vals[idx - 1] + vals[idx]) / 2.0
                    })
                    .collect::<Vec<f64>>()
            };
            thresholds.push(cuts);
        }
        let mut codes = vec![0u16; n * f];
        for r in 0..n {
            for feat in 0..f {
                let v = features[r * f + feat];
                let cuts = &thresholds[feat];
                // partition_point: number of cuts <= v == bin index.
                codes[r * f + feat] = cuts.partition_point(|&c| c <= v) as u16;
            }
        }
        BinnedFeatures { codes, thresholds, n, f }
    }
}

/// A fitted regression tree (arena storage, root at index 0).
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Rebuilds a tree from a stored node arena (state deserialization).
    ///
    /// # Panics
    /// Panics if `nodes` is empty or any split child index is out of range.
    pub(crate) fn from_parts(nodes: Vec<Node>, num_features: usize) -> Self {
        assert!(!nodes.is_empty(), "tree needs at least one node");
        for node in &nodes {
            if let Node::Split { left, right, .. } = node {
                assert!(*left < nodes.len() && *right < nodes.len(), "child index out of range");
            }
        }
        RegressionTree { nodes, num_features }
    }

    /// Fits a tree minimizing squared error.
    ///
    /// `features` is row-major `n × num_features`.
    ///
    /// # Panics
    /// Panics if `targets.len() * num_features != features.len()` or the
    /// input is empty.
    pub fn fit(features: &[f64], targets: &[f64], num_features: usize, config: TreeConfig) -> Self {
        let n = targets.len();
        assert!(n > 0, "empty training set");
        assert_eq!(features.len(), n * num_features, "feature matrix shape");
        let mut tree = RegressionTree { nodes: Vec::new(), num_features };
        let indices: Vec<usize> = (0..n).collect();
        tree.grow(features, targets, indices, 0, config);
        tree
    }

    fn grow(
        &mut self,
        features: &[f64],
        targets: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: TreeConfig,
    ) -> usize {
        let n = indices.len();
        let sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let mean = sum / n as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean, cover: n as f64 });
            nodes.len() - 1
        };
        if depth >= config.max_depth || n < 2 * config.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }
        // Best split by SSE reduction, scanning each feature in sorted order.
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let parent_sse = total_sq - sum * sum / n as f64;
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted = indices.clone();
        for f in 0..self.num_features {
            sorted.sort_by(|&a, &b| {
                features[a * self.num_features + f]
                    .partial_cmp(&features[b * self.num_features + f])
                    .expect("no NaN features")
            });
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (k, &i) in sorted.iter().enumerate().take(n - 1) {
                left_sum += targets[i];
                left_sq += targets[i] * targets[i];
                let nl = k + 1;
                let nr = n - nl;
                if nl < config.min_samples_leaf || nr < config.min_samples_leaf {
                    continue;
                }
                let v_here = features[i * self.num_features + f];
                let v_next = features[sorted[k + 1] * self.num_features + f];
                if v_here == v_next {
                    continue; // cannot split between equal values
                }
                let right_sum = sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / nl as f64)
                    + (right_sq - right_sum * right_sum / nr as f64);
                let gain = parent_sse - sse;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.0) {
                    best = Some((gain, f, (v_here + v_next) / 2.0));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .into_iter()
            .partition(|&i| features[i * self.num_features + feature] < threshold);
        // Reserve this node's slot before growing children.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean, cover: n as f64 }); // placeholder
        let left = self.grow(features, targets, left_idx, depth + 1, config);
        let right = self.grow(features, targets, right_idx, depth + 1, config);
        self.nodes[slot] = Node::Split { feature, threshold, left, right, cover: n as f64 };
        slot
    }

    /// Fits a tree on pre-binned features over the given sample indices,
    /// using histogram split finding (O(samples·features) per node instead
    /// of per-node sorting).
    pub(crate) fn fit_binned(
        binned: &BinnedFeatures,
        targets: &[f64],
        indices: Vec<usize>,
        config: TreeConfig,
    ) -> Self {
        assert_eq!(targets.len(), binned.n, "targets/sample count mismatch");
        assert!(!indices.is_empty(), "empty index set");
        let mut tree = RegressionTree { nodes: Vec::new(), num_features: binned.f };
        tree.grow_binned(binned, targets, indices, 0, config);
        tree
    }

    fn grow_binned(
        &mut self,
        binned: &BinnedFeatures,
        targets: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: TreeConfig,
    ) -> usize {
        let n = indices.len();
        let sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let mean = sum / n as f64;
        if depth >= config.max_depth || n < 2 * config.min_samples_leaf {
            self.nodes.push(Node::Leaf { value: mean, cover: n as f64 });
            return self.nodes.len() - 1;
        }
        // Gain = SSE(parent) - SSE(children); the squared-target terms
        // cancel, so only the per-side sums and counts are needed.
        let mut best: Option<(f64, usize, u16)> = None; // (gain, feature, bin)
                                                        // Histogram scratch reused per feature.
        let max_bins = binned.thresholds.iter().map(|t| t.len() + 1).max().unwrap_or(1);
        let mut bin_sum = vec![0.0f64; max_bins];
        let mut bin_cnt = vec![0usize; max_bins];
        for feat in 0..binned.f {
            let nbins = binned.thresholds[feat].len() + 1;
            if nbins < 2 {
                continue;
            }
            bin_sum[..nbins].fill(0.0);
            bin_cnt[..nbins].fill(0);
            for &i in &indices {
                let b = binned.codes[i * binned.f + feat] as usize;
                bin_sum[b] += targets[i];
                bin_cnt[b] += 1;
            }
            let mut left_sum = 0.0;
            let mut left_cnt = 0usize;
            for b in 0..nbins - 1 {
                left_sum += bin_sum[b];
                left_cnt += bin_cnt[b];
                let right_cnt = n - left_cnt;
                if left_cnt < config.min_samples_leaf || right_cnt < config.min_samples_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                // SSE decomposes so only the sum terms matter for the gain.
                let gain = left_sum * left_sum / left_cnt as f64
                    + right_sum * right_sum / right_cnt as f64
                    - sum * sum / n as f64;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.0) {
                    best = Some((gain, feat, b as u16));
                }
            }
        }
        let Some((_, feature, bin)) = best else {
            self.nodes.push(Node::Leaf { value: mean, cover: n as f64 });
            return self.nodes.len() - 1;
        };
        let threshold = binned.thresholds[feature][bin as usize];
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.into_iter().partition(|&i| binned.codes[i * binned.f + feature] <= bin);
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean, cover: n as f64 }); // placeholder
        let left = self.grow_binned(binned, targets, left_idx, depth + 1, config);
        let right = self.grow_binned(binned, targets, right_idx, depth + 1, config);
        self.nodes[slot] = Node::Split { feature, threshold, left, right, cover: n as f64 };
        slot
    }

    /// Predicts one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.num_features);
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value, .. } => return *value,
                Node::Split { feature, threshold, left, right, .. } => {
                    i = if x[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// The node arena (root at 0) — used by TreeSHAP.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Maximum depth actually reached.
    #[cfg(test)]
    fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy(rows: &[(&[f64], f64)]) -> (Vec<f64>, Vec<f64>, usize) {
        let nf = rows[0].0.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (f, t) in rows {
            x.extend_from_slice(f);
            y.push(*t);
        }
        (x, y, nf)
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let (x, y, nf) = xy(&[(&[1.0], 5.0), (&[2.0], 5.0), (&[3.0], 5.0), (&[4.0], 5.0)]);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig { max_depth: 3, min_samples_leaf: 1 });
        assert_eq!(t.nodes().len(), 1);
        assert_eq!(t.predict(&[99.0]), 5.0);
    }

    #[test]
    fn perfect_step_function_split() {
        let (x, y, nf) = xy(&[
            (&[0.0], 1.0),
            (&[1.0], 1.0),
            (&[2.0], 1.0),
            (&[10.0], 9.0),
            (&[11.0], 9.0),
            (&[12.0], 9.0),
        ]);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig { max_depth: 2, min_samples_leaf: 1 });
        assert_eq!(t.predict(&[0.5]), 1.0);
        assert_eq!(t.predict(&[11.5]), 9.0);
        // threshold should lie between 2 and 10
        match &t.nodes()[0] {
            Node::Split { threshold, cover, .. } => {
                assert!((2.0..=10.0).contains(threshold));
                assert_eq!(*cover, 6.0);
            }
            other => panic!("expected split at root, got {other:?}"),
        }
    }

    #[test]
    fn picks_informative_feature() {
        // Feature 0 is noise; feature 1 determines the target.
        let rows: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| {
                let noise = ((i * 17) % 7) as f64;
                let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
                (vec![noise, signal], signal)
            })
            .collect();
        let refs: Vec<(&[f64], f64)> = rows.iter().map(|(f, t)| (f.as_slice(), *t)).collect();
        let (x, y, nf) = xy(&refs);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig::default());
        match &t.nodes()[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 1),
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn depth_limit_respected() {
        let rows: Vec<(Vec<f64>, f64)> =
            (0..256).map(|i| (vec![i as f64], (i % 16) as f64)).collect();
        let refs: Vec<(&[f64], f64)> = rows.iter().map(|(f, t)| (f.as_slice(), *t)).collect();
        let (x, y, nf) = xy(&refs);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig { max_depth: 4, min_samples_leaf: 1 });
        assert!(t.depth() <= 4);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let rows: Vec<(Vec<f64>, f64)> = (0..20).map(|i| (vec![i as f64], i as f64)).collect();
        let refs: Vec<(&[f64], f64)> = rows.iter().map(|(f, t)| (f.as_slice(), *t)).collect();
        let (x, y, nf) = xy(&refs);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig { max_depth: 10, min_samples_leaf: 5 });
        for node in t.nodes() {
            if let Node::Leaf { cover, .. } = node {
                assert!(*cover >= 5.0, "leaf cover {cover}");
            }
        }
    }

    #[test]
    fn binned_fit_matches_exact_on_separable_data() {
        let (x, y, nf) = xy(&[
            (&[0.0], 1.0),
            (&[1.0], 1.0),
            (&[2.0], 1.0),
            (&[10.0], 9.0),
            (&[11.0], 9.0),
            (&[12.0], 9.0),
        ]);
        let binned = BinnedFeatures::build(&x, y.len(), nf, 64);
        let t = RegressionTree::fit_binned(
            &binned,
            &y,
            (0..y.len()).collect(),
            TreeConfig { max_depth: 2, min_samples_leaf: 1 },
        );
        assert_eq!(t.predict(&[0.5]), 1.0);
        assert_eq!(t.predict(&[11.5]), 9.0);
    }

    #[test]
    fn binned_fit_approximates_exact_on_smooth_target() {
        let rows: Vec<(Vec<f64>, f64)> = (0..500)
            .map(|i| {
                let x = i as f64 / 50.0;
                (vec![x, (i % 7) as f64], (x * 1.3).sin() * 2.0)
            })
            .collect();
        let refs: Vec<(&[f64], f64)> = rows.iter().map(|(f, t)| (f.as_slice(), *t)).collect();
        let (x, y, nf) = xy(&refs);
        let cfg = TreeConfig { max_depth: 5, min_samples_leaf: 3 };
        let exact = RegressionTree::fit(&x, &y, nf, cfg);
        let binned = BinnedFeatures::build(&x, y.len(), nf, 64);
        let approx = RegressionTree::fit_binned(&binned, &y, (0..y.len()).collect(), cfg);
        let sse = |t: &RegressionTree| {
            rows.iter()
                .map(|(f, target)| {
                    let p = t.predict(f);
                    (target - p) * (target - p)
                })
                .sum::<f64>()
        };
        let (se, sb) = (sse(&exact), sse(&approx));
        assert!(sb < 2.0 * se + 1e-6, "binned sse {sb} vs exact {se}");
    }

    #[test]
    fn binned_subset_fitting() {
        // Fitting on a subset must ignore excluded samples entirely.
        let (x, y, nf) = xy(&[
            (&[0.0], 1.0),
            (&[1.0], 1.0),
            (&[2.0], 100.0), // excluded outlier
            (&[3.0], 1.0),
        ]);
        let binned = BinnedFeatures::build(&x, y.len(), nf, 8);
        let t = RegressionTree::fit_binned(
            &binned,
            &y,
            vec![0, 1, 3],
            TreeConfig { max_depth: 3, min_samples_leaf: 1 },
        );
        assert_eq!(t.predict(&[2.0]), 1.0);
    }

    #[test]
    fn binning_respects_max_bins() {
        let x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let b = BinnedFeatures::build(&x, 1000, 1, 16);
        assert_eq!(b.f, 1);
        let max_code = (0..1000).map(|i| b.codes[i]).max().expect("non-empty");
        assert!(max_code < 16, "code {max_code}");
    }

    #[test]
    fn tree_reduces_sse_vs_mean() {
        let rows: Vec<(Vec<f64>, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                (vec![x], x.sin() * 3.0)
            })
            .collect();
        let refs: Vec<(&[f64], f64)> = rows.iter().map(|(f, t)| (f.as_slice(), *t)).collect();
        let (x, y, nf) = xy(&refs);
        let t = RegressionTree::fit(&x, &y, nf, TreeConfig { max_depth: 5, min_samples_leaf: 2 });
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let sse_mean: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
        let sse_tree: f64 = rows
            .iter()
            .map(|(f, target)| {
                let p = t.predict(f);
                (target - p) * (target - p)
            })
            .sum();
        assert!(sse_tree < sse_mean / 4.0, "{sse_tree} vs {sse_mean}");
    }
}
