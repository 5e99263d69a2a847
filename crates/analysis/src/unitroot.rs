//! Unit-root test statistics: KPSS (`unitroot_kpss`) and Phillips–Perron
//! (`unitroot_pp`), two of the SHAP-important stationarity characteristics
//! (§4.3.1).

use tsdata::stats::mean;

fn bartlett_long_run_variance(e: &[f64], lags: usize) -> f64 {
    let n = e.len() as f64;
    let gamma = |j: usize| -> f64 { e.iter().skip(j).zip(e).map(|(a, b)| a * b).sum::<f64>() / n };
    let mut lrv = gamma(0);
    for j in 1..=lags.min(e.len().saturating_sub(1)) {
        let w = 1.0 - j as f64 / (lags + 1) as f64;
        lrv += 2.0 * w * gamma(j);
    }
    lrv.max(1e-12)
}

fn default_lags(n: usize) -> usize {
    (4.0 * (n as f64 / 100.0).powf(0.25)).trunc() as usize
}

/// KPSS level-stationarity statistic. Small values (≲ 0.46) are consistent
/// with stationarity; large values reject it.
pub(crate) fn kpss(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 8 {
        return 0.0;
    }
    let m = mean(x);
    let e: Vec<f64> = x.iter().map(|v| v - m).collect();
    let mut s = 0.0;
    let sum_s2: f64 = e
        .iter()
        .map(|&v| {
            s += v;
            s * s
        })
        .sum();
    let lrv = bartlett_long_run_variance(&e, default_lags(n));
    sum_s2 / (n as f64 * n as f64 * lrv)
}

/// Phillips–Perron `Z_alpha` statistic (constant-only regression). Large
/// negative values reject a unit root (stationary); values near zero are
/// consistent with a unit root.
pub(crate) fn phillips_perron(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 8 {
        return 0.0;
    }
    // OLS: x_t = mu + rho * x_{t-1} + e_t.
    let y = &x[1..];
    let ylag = &x[..n - 1];
    let m = n - 1;
    let mean_lag = mean(ylag);
    let mean_y = mean(y);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for t in 0..m {
        let dx = ylag[t] - mean_lag;
        sxx += dx * dx;
        sxy += dx * (y[t] - mean_y);
    }
    if sxx < 1e-12 {
        return 0.0;
    }
    let rho = sxy / sxx;
    let mu = mean_y - rho * mean_lag;
    let e: Vec<f64> = (0..m).map(|t| y[t] - mu - rho * ylag[t]).collect();
    let gamma0: f64 = e.iter().map(|v| v * v).sum::<f64>() / m as f64;
    let lambda2 = bartlett_long_run_variance(&e, default_lags(m));
    // Z_alpha = m(rho - 1) - (lambda² - gamma0) / (2 * sxx / m²)
    m as f64 * (rho - 1.0) - (lambda2 - gamma0) / (2.0 * sxx / (m as f64 * m as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn random_walk(n: usize, seed: u64) -> Vec<f64> {
        let mut cum = 0.0;
        noise(n, seed)
            .into_iter()
            .map(|v| {
                cum += v;
                cum
            })
            .collect()
    }

    #[test]
    fn kpss_small_for_stationary() {
        let stat = kpss(&noise(2000, 1));
        assert!(stat < 0.5, "stationary KPSS {stat}");
    }

    #[test]
    fn kpss_large_for_random_walk() {
        let stat = kpss(&random_walk(2000, 2));
        assert!(stat > 1.0, "random walk KPSS {stat}");
    }

    #[test]
    fn pp_rejects_unit_root_for_noise() {
        let stat = phillips_perron(&noise(2000, 3));
        assert!(stat < -100.0, "noise PP {stat} should be very negative");
    }

    #[test]
    fn pp_near_zero_for_random_walk() {
        let stat = phillips_perron(&random_walk(2000, 4));
        assert!(stat > -30.0, "random walk PP {stat} should be near zero");
    }

    #[test]
    fn ordering_is_consistent() {
        // KPSS and PP must order a stationary and an integrated series
        // oppositely (that's their point).
        let stationary = noise(1500, 5);
        let integrated = random_walk(1500, 5);
        assert!(kpss(&stationary) < kpss(&integrated));
        assert!(phillips_perron(&stationary) < phillips_perron(&integrated));
    }

    #[test]
    fn degenerate_inputs_safe() {
        assert_eq!(kpss(&[1.0, 2.0]), 0.0);
        assert_eq!(phillips_perron(&[1.0; 5]), 0.0);
        assert_eq!(phillips_perron(&[3.0; 100]), 0.0); // constant: sxx = 0
    }
}
