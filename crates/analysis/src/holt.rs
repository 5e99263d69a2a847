//! Holt's linear exponential smoothing, fitted by grid search over the
//! smoothing parameters. Provides the `alpha` (level) and `beta` (trend)
//! characteristics of tsfeatures' `holt_parameters`; `beta` appears among
//! the paper's top Spearman correlates of TFE (Table 4).

/// Fitted Holt smoothing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HoltParams {
    /// Level smoothing parameter.
    pub alpha: f64,
    /// Trend smoothing parameter.
    pub beta: f64,
    /// One-step-ahead SSE at the optimum.
    pub sse: f64,
}

/// One-step-ahead SSE of Holt's linear method for given parameters.
fn holt_sse(x: &[f64], alpha: f64, beta: f64) -> f64 {
    if x.len() < 3 {
        return 0.0;
    }
    let mut level = x[1];
    let mut trend = x[1] - x[0];
    let mut sse = 0.0;
    for &y in &x[2..] {
        let forecast = level + trend;
        let err = y - forecast;
        sse += err * err;
        let new_level = alpha * y + (1.0 - alpha) * (level + trend);
        trend = beta * (new_level - level) + (1.0 - beta) * trend;
        level = new_level;
    }
    sse
}

/// Fits `(alpha, beta)` by coarse-to-fine grid search minimizing one-step
/// SSE. Long series are tail-capped for speed (the parameters are
/// scale-free).
pub(crate) fn holt_parameters(x: &[f64]) -> HoltParams {
    const CAP: usize = 2000;
    let x = &x[x.len().saturating_sub(CAP)..];
    if x.len() < 3 {
        return HoltParams { alpha: 0.5, beta: 0.1, sse: 0.0 };
    }
    let mut best = HoltParams { alpha: 0.5, beta: 0.1, sse: f64::INFINITY };
    // Coarse pass.
    let grid: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    for &a in &grid {
        for &b in &grid {
            let sse = holt_sse(x, a, b);
            if sse < best.sse {
                best = HoltParams { alpha: a, beta: b, sse };
            }
        }
    }
    // Fine pass around the coarse optimum.
    let refine: Vec<f64> = (-4..=4).map(|i| i as f64 * 0.0125).collect();
    let (ca, cb) = (best.alpha, best.beta);
    for &da in &refine {
        for &db in &refine {
            let a = (ca + da).clamp(0.001, 0.999);
            let b = (cb + db).clamp(0.001, 0.999);
            let sse = holt_sse(x, a, b);
            if sse < best.sse {
                best = HoltParams { alpha: a, beta: b, sse };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
            })
            .collect()
    }

    #[test]
    fn smooth_trend_gets_high_alpha_low_sse() {
        // Nearly deterministic ramp: following the data closely is optimal.
        let x: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        let p = holt_parameters(&x);
        assert!(p.sse < 1e-6, "ramp sse {}", p.sse);
    }

    #[test]
    fn noisy_level_gets_low_alpha() {
        // Constant + heavy noise: averaging (small alpha) wins.
        let x: Vec<f64> = noise(800, 7, 4.0).iter().map(|v| 10.0 + v).collect();
        let p = holt_parameters(&x);
        assert!(p.alpha < 0.4, "alpha {}", p.alpha);
        assert!(p.beta < 0.3, "beta {}", p.beta);
    }

    #[test]
    fn trending_series_gets_higher_beta_than_flat() {
        let mut trendy: Vec<f64> = Vec::new();
        let mut slope = 0.1;
        let mut level = 0.0;
        for (i, n) in noise(600, 9, 0.05).into_iter().enumerate() {
            if i % 150 == 0 {
                slope = -slope; // trend changes direction -> beta must adapt
            }
            level += slope;
            trendy.push(level + n);
        }
        let flat: Vec<f64> = noise(600, 10, 0.05).iter().map(|v| 5.0 + v).collect();
        let pt = holt_parameters(&trendy);
        let pf = holt_parameters(&flat);
        assert!(pt.beta > pf.beta, "trendy beta {} vs flat beta {}", pt.beta, pf.beta);
    }

    #[test]
    fn sse_monotone_sanity() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let p = holt_parameters(&x);
        // Optimum is no worse than arbitrary parameter picks.
        assert!(p.sse <= holt_sse(&x, 0.2, 0.2) + 1e-12);
        assert!(p.sse <= holt_sse(&x, 0.9, 0.05) + 1e-12);
    }

    #[test]
    fn short_input_defaults() {
        let p = holt_parameters(&[1.0, 2.0]);
        assert_eq!(p.alpha, 0.5);
    }
}
