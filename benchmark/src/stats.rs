//! Order statistics, the seeded generator behind every workload input, and
//! small process probes.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `p` is clamped to
/// `[0, 100]`; an empty slice reads as 0.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and returns `(p50, p99)` by nearest rank.
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    (percentile(&sorted, 50.0), percentile(&sorted, 99.0))
}

/// An ascending copy (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this program prints match the ones an outside script
/// computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        ld => {
            let m = ld as i64 + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4i64) {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                // Negative when j was clamped up: Python extrapolates too.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and every later version of this program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// An exponential gap with the given rate (events per unit time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A sample from cumulative weights (`cdf` ascending, last entry the
    /// total).
    pub fn weighted(&mut self, cdf: &[f64]) -> usize {
        let x = self.unit() * cdf[cdf.len() - 1];
        cdf.iter().position(|&c| x < c).unwrap_or(cdf.len() - 1)
    }
}

/// FNV-1a over bytes: the digest printed for grid CSVs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    peak_rss_mb_of("/proc/self/status")
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB; 0 when unreadable.
pub fn peak_rss_mb_of(status_path: &str) -> f64 {
    status_kb(status_path, "VmHWM:") / 1024.0
}

/// Lowers this process's `VmHWM` to its current resident size, so the
/// next `peak_rss_mb` covers only what ran in between. Returns whether the
/// kernel accepted the reset (Linux 4.0 and later).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(status_path: &str, key: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(p50_p99(&[3.0, 1.0, 2.0]), (2.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from `statistics.quantiles(data, n=4)` in CPython.
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quartiles(&hundred), [25.25, 50.5, 75.75]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(9), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(10), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
        assert!((0..1000).map(|_| r.weighted(&[1.0, 3.0])).all(|i| i < 2));
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
