//! Correlation measures: Pearson (re-exported from `tsdata`) and Spearman
//! rank correlation, used for the Table-4 characteristic-to-TFE ranking.

use tsdata::metrics::pearson;

/// Average ranks (1-based), with ties receiving the mean of their ranks.
pub fn ranks(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("no NaN in ranks"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 tie; assign their mean.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation coefficient.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman: length mismatch");
    if x.len() < 2 {
        return 0.0;
    }
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_basic_and_ties() {
        assert_eq!(ranks(&[10.0, 30.0, 20.0]), vec![1.0, 3.0, 2.0]);
        // Two-way tie: ranks 2 and 3 average to 2.5.
        assert_eq!(ranks(&[1.0, 5.0, 5.0, 9.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spearman_monotone_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 10.0, 100.0, 1000.0]; // monotone but nonlinear
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        let z = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_robust_to_outliers_vs_pearson() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 2.0, 3.0, 4.0, 1000.0];
        let s = spearman(&x, &y);
        let p = pearson(&x, &y);
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p < s, "pearson {p} should be dragged below spearman {s}");
    }

    #[test]
    fn spearman_of_independent_is_small() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 53) % 97) as f64).collect();
        assert!(spearman(&x, &y).abs() < 0.2);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        // Constant input: correlation undefined -> pearson returns 0.
        assert_eq!(spearman(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    }
}
