//! Rolling-window characteristics: the distribution-shift features the
//! paper identifies as the key TFE predictors (`max_kl_shift`,
//! `max_level_shift`, `max_var_shift`, §4.3.1), plus tiled-window
//! stability/lumpiness, crossing points, flat spots, and the Hurst
//! exponent.

use tsdata::stats::{mean, variance};

/// A shift statistic: its maximum value and the (0-based) window index at
/// which it occurs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shift {
    /// Maximum shift observed.
    pub max: f64,
    /// Index of the window where the maximum occurs.
    pub time: f64,
}

const ZERO_SHIFT: Shift = Shift { max: 0.0, time: 0.0 };

/// Largest absolute difference between means of consecutive width-`w`
/// windows (tsfeatures `max_level_shift`).
pub fn max_level_shift(x: &[f64], w: usize) -> Shift {
    rolling_shift(x, w, |a, b| (mean(a) - mean(b)).abs())
}

/// Largest absolute difference between variances of consecutive windows
/// (`max_var_shift`).
pub(crate) fn max_var_shift(x: &[f64], w: usize) -> Shift {
    rolling_shift(x, w, |a, b| (variance(a) - variance(b)).abs())
}

fn rolling_shift(x: &[f64], w: usize, stat: impl Fn(&[f64], &[f64]) -> f64) -> Shift {
    if x.len() < 2 * w || w == 0 {
        return ZERO_SHIFT;
    }
    let mut best = ZERO_SHIFT;
    for start in 0..=x.len() - 2 * w {
        let a = &x[start..start + w];
        let b = &x[start + w..start + 2 * w];
        let s = stat(a, b);
        if s > best.max {
            best = Shift { max: s, time: start as f64 };
        }
    }
    best
}

/// Largest Kullback–Leibler divergence between kernel density estimates of
/// consecutive width-`w` windows (`max_kl_shift`) — the paper's single most
/// important TFE predictor.
///
/// Densities are Gaussian-kernel estimates evaluated on a shared grid, with
/// a small floor to keep the divergence finite (mirroring tsfeatures).
pub(crate) fn max_kl_shift(x: &[f64], w: usize) -> Shift {
    const GRID: usize = 100;
    const FLOOR: f64 = 1e-6;
    if x.len() < 2 * w || w == 0 {
        return ZERO_SHIFT;
    }
    let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(hi - lo).is_finite() || hi - lo < 1e-12 {
        return ZERO_SHIFT;
    }
    let grid: Vec<f64> = (0..GRID).map(|i| lo + (hi - lo) * i as f64 / (GRID - 1) as f64).collect();
    // Per-window Silverman bandwidth, floored at the grid resolution. A
    // window flattened to a plateau (what PMC produces) gets a near-delta
    // density, which is exactly why the paper finds max_kl_shift so
    // sensitive to PMC's averaging (§4.3.3).
    let bw_floor = (hi - lo) / GRID as f64;
    let density = |window: &[f64]| -> Vec<f64> {
        let sd = variance(window).sqrt();
        let bw = (1.06 * sd * (window.len() as f64).powf(-0.2)).max(bw_floor);
        let mut d: Vec<f64> = grid
            .iter()
            .map(|&g| window.iter().map(|&v| (-0.5 * ((g - v) / bw).powi(2)).exp()).sum::<f64>())
            .collect();
        let total: f64 = d.iter().sum::<f64>().max(1e-300);
        for v in d.iter_mut() {
            *v = (*v / total).max(FLOOR);
        }
        d
    };

    // Step windows by w/2 for efficiency on long series (densities are
    // O(w·GRID) each); tsfeatures steps by 1, but the maximum over
    // half-overlapping windows converges to the same shift location.
    let step = (w / 2).max(1);
    let mut best = ZERO_SHIFT;
    let mut start = 0;
    while start + 2 * w <= x.len() {
        let p = density(&x[start..start + w]);
        let q = density(&x[start + w..start + 2 * w]);
        let kl: f64 = p.iter().zip(&q).map(|(&pi, &qi)| pi * (pi / qi).ln()).sum();
        if kl > best.max {
            best = Shift { max: kl, time: start as f64 };
        }
        start += step;
    }
    best
}

/// Variance of tiled (non-overlapping) window means (`stability`).
pub(crate) fn stability(x: &[f64], w: usize) -> f64 {
    tiled(x, w, mean)
}

/// Variance of tiled window variances (`lumpiness`).
pub(crate) fn lumpiness(x: &[f64], w: usize) -> f64 {
    tiled(x, w, variance)
}

fn tiled(x: &[f64], w: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    if w == 0 || x.len() < w {
        return 0.0;
    }
    let stats: Vec<f64> = x.chunks_exact(w).map(stat).collect();
    variance(&stats)
}

/// Number of times the series crosses its median (`crossing_points`).
pub fn crossing_points(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = tsdata::stats::percentile(&sorted, 0.5);
    let above: Vec<bool> = x.iter().map(|&v| v > median).collect();
    above.windows(2).filter(|w| w[0] != w[1]).count() as f64
}

/// Longest run of identical decile-bucket membership (`flat_spots`).
pub fn flat_spots(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if hi - lo < 1e-12 {
        return x.len() as f64;
    }
    let bucket = |v: f64| (((v - lo) / (hi - lo) * 10.0).floor() as i32).min(9);
    let mut best = 1usize;
    let mut run = 1usize;
    for w in x.windows(2) {
        if bucket(w[0]) == bucket(w[1]) {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best as f64
}

/// Hurst exponent via the rescaled-range (R/S) method: slope of
/// `log(R/S)` against `log(window)` over dyadic windows.
pub(crate) fn hurst(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 32 {
        return 0.5;
    }
    let mut log_w = Vec::new();
    let mut log_rs = Vec::new();
    let mut w = 8usize;
    while w <= n / 2 {
        let mut rs_vals = Vec::new();
        for chunk in x.chunks_exact(w) {
            let m = mean(chunk);
            let mut cum = 0.0;
            let mut min_c = f64::INFINITY;
            let mut max_c = f64::NEG_INFINITY;
            for &v in chunk {
                cum += v - m;
                min_c = min_c.min(cum);
                max_c = max_c.max(cum);
            }
            let r = max_c - min_c;
            let s = variance(chunk).sqrt();
            if s > 1e-12 {
                rs_vals.push(r / s);
            }
        }
        if !rs_vals.is_empty() {
            log_w.push((w as f64).ln());
            log_rs.push(mean(&rs_vals).ln());
        }
        w *= 2;
    }
    if log_w.len() < 2 {
        return 0.5;
    }
    // OLS slope.
    let mw = mean(&log_w);
    let mr = mean(&log_rs);
    let num: f64 = log_w.iter().zip(&log_rs).map(|(a, b)| (a - mw) * (b - mr)).sum();
    let den: f64 = log_w.iter().map(|a| (a - mw) * (a - mw)).sum();
    if den < 1e-12 {
        0.5
    } else {
        (num / den).clamp(0.0, 1.0)
    }
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

    #[test]
    fn level_shift_detects_step() {
        let mut x = vec![0.0; 200];
        for v in x[100..].iter_mut() {
            *v = 10.0;
        }
        let s = max_level_shift(&x, 20);
        assert!((s.max - 10.0).abs() < 1e-9);
        assert!((s.time - 80.0).abs() < 1.0, "time {}", s.time);
    }

    #[test]
    fn var_shift_detects_volatility_change() {
        let mut x = noise(200, 1);
        for v in x[100..].iter_mut() {
            *v *= 10.0;
        }
        let s = max_var_shift(&x, 25);
        assert!(s.max > 0.5, "var shift {}", s.max);
        assert!(s.time >= 50.0 && s.time <= 100.0, "time {}", s.time);
    }

    #[test]
    fn kl_shift_detects_distribution_change() {
        // Same mean and variance but different shape after the change point:
        // uniform-ish noise vs bimodal.
        let mut x = noise(400, 2);
        for (i, v) in x[200..].iter_mut().enumerate() {
            *v = if i % 2 == 0 { 0.45 } else { -0.45 };
        }
        let s = max_kl_shift(&x, 50);
        let baseline = max_kl_shift(&noise(400, 3), 50);
        assert!(s.max > 2.0 * baseline.max, "{} vs baseline {}", s.max, baseline.max);
    }

    #[test]
    fn kl_shift_zero_for_constant() {
        assert_eq!(max_kl_shift(&[5.0; 100], 10), ZERO_SHIFT);
    }

    #[test]
    fn shifts_safe_on_short_input() {
        assert_eq!(max_level_shift(&[1.0, 2.0], 5), ZERO_SHIFT);
        assert_eq!(max_var_shift(&[], 5), ZERO_SHIFT);
        assert_eq!(max_kl_shift(&[1.0], 5), ZERO_SHIFT);
    }

    #[test]
    fn stability_and_lumpiness() {
        // Stable mean, changing variance -> low stability, high lumpiness.
        let mut x = noise(400, 4);
        for v in x[200..].iter_mut() {
            *v *= 5.0;
        }
        let stab = stability(&x, 50);
        let lump = lumpiness(&x, 50);
        assert!(lump > stab, "lumpiness {lump} vs stability {stab}");
        // Changing mean, same variance -> stability dominates.
        let mut y = noise(400, 5);
        for v in y[200..].iter_mut() {
            *v += 5.0;
        }
        assert!(stability(&y, 50) > lumpiness(&y, 50));
    }

    #[test]
    fn crossing_points_counts() {
        let x = [0.0, 2.0, 0.0, 2.0, 0.0, 2.0];
        // median = 1; alternating above/below -> 5 crossings
        assert_eq!(crossing_points(&x), 5.0);
        assert_eq!(crossing_points(&[1.0]), 0.0);
    }

    #[test]
    fn flat_spots_tracks_plateaus() {
        let mut x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        x.extend(vec![100.0; 30]); // long plateau in top decile
        assert!(flat_spots(&x) >= 30.0);
        assert_eq!(flat_spots(&[7.0; 10]), 10.0);
    }

    #[test]
    fn hurst_ranges() {
        // White noise: H ≈ 0.5.
        let h_noise = hurst(&noise(4096, 6));
        assert!((0.35..0.75).contains(&h_noise), "noise H {h_noise}");
        // A trending random walk is persistent: H near 1.
        let mut walk = vec![0.0];
        for v in noise(4095, 7) {
            let prev = *walk.last().expect("non-empty");
            walk.push(prev + v + 0.05);
        }
        let h_walk = hurst(&walk);
        assert!(h_walk > h_noise, "walk {h_walk} vs noise {h_noise}");
    }
}
