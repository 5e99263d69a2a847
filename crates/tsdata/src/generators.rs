//! Composable synthetic signal generators.
//!
//! The paper evaluates on six real datasets that are not redistributable
//! here; `crate::datasets` recreates them from these building blocks,
//! calibrated to the descriptive statistics the paper reports (Table 1).
//! Every generator is deterministic given a seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::{mean, percentile};

/// One additive component of a synthetic signal.
#[derive(Debug, Clone)]
pub(crate) enum Component {
    /// Constant offset.
    Constant(f64),
    /// Sinusoid with a period expressed in samples.
    Seasonal { period: f64, amplitude: f64, phase: f64 },
    /// Sinusoid whose amplitude itself oscillates with a longer period,
    /// producing the amplitude-modulated daily cycles of load/solar data.
    ModulatedSeasonal {
        /// Carrier period in samples.
        period: f64,
        /// Base amplitude.
        amplitude: f64,
        /// Modulator period in samples.
        mod_period: f64,
        /// Modulation depth in `[0, 1]`.
        depth: f64,
    },
    /// Stationary AR(1) noise: `e_i = phi * e_{i-1} + N(0, sigma)`.
    ArNoise { phi: f64, sigma: f64 },
    /// Gaussian random walk with per-step std `sigma`, mean-reverting toward
    /// zero with rate `revert` (an Ornstein–Uhlenbeck discretization).
    RandomWalk { sigma: f64, revert: f64 },
    /// Heavy-tailed spikes: with probability `prob`, adds
    /// `±Exp(scale)`-distributed bursts (models turbine gusts/outliers).
    Spikes { prob: f64, scale: f64 },
}

/// A deterministic synthetic signal: a sum of [`Component`]s evaluated over
/// `n` samples.
#[derive(Debug, Clone, Default)]
pub(crate) struct SignalSpec {
    components: Vec<Component>,
}

impl SignalSpec {
    /// Starts an empty spec.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a component.
    pub(crate) fn with(mut self, c: Component) -> Self {
        self.components.push(c);
        self
    }

    /// Generates `n` samples using the seeded RNG.
    pub(crate) fn generate(&self, n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for c in &self.components {
            match *c {
                Component::Constant(v) => {
                    for x in out.iter_mut() {
                        *x += v;
                    }
                }
                Component::Seasonal { period, amplitude, phase } => {
                    let w = std::f64::consts::TAU / period;
                    for (i, x) in out.iter_mut().enumerate() {
                        *x += amplitude * (w * i as f64 + phase).sin();
                    }
                }
                Component::ModulatedSeasonal { period, amplitude, mod_period, depth } => {
                    let w = std::f64::consts::TAU / period;
                    let wm = std::f64::consts::TAU / mod_period;
                    for (i, x) in out.iter_mut().enumerate() {
                        let m = 1.0 + depth * (wm * i as f64).sin();
                        *x += amplitude * m * (w * i as f64).sin();
                    }
                }
                Component::ArNoise { phi, sigma } => {
                    let mut e = 0.0;
                    for x in out.iter_mut() {
                        e = phi * e + gaussian(rng) * sigma;
                        *x += e;
                    }
                }
                Component::RandomWalk { sigma, revert } => {
                    let mut level = 0.0;
                    for x in out.iter_mut() {
                        level += gaussian(rng) * sigma - revert * level;
                        *x += level;
                    }
                }
                Component::Spikes { prob, scale } => {
                    for x in out.iter_mut() {
                        if rng.random::<f64>() < prob {
                            let mag = -scale * rng.random::<f64>().max(1e-12).ln();
                            *x += if rng.random::<bool>() { mag } else { -mag };
                        }
                    }
                }
            }
        }
        out
    }
}

/// Standard normal sample via Box–Muller (only `rand::Rng::random` needed,
/// keeping us independent of distribution crates).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Target statistics for [`calibrate`]: the Table-1 columns we match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CalibrationTarget {
    /// Desired mean.
    pub mean: f64,
    /// Desired Q1.
    pub q1: f64,
    /// Desired Q3.
    pub q3: f64,
    /// Hard lower clip.
    pub min: f64,
    /// Hard upper clip.
    pub max: f64,
}

/// Affinely rescales `values` so its inter-quartile range and mean match the
/// target, then clips into `[min, max]`.
///
/// An affine map preserves the signal's *shape* (autocorrelation, seasonal
/// structure, relative KL shifts), which is what the paper's analyses depend
/// on, while pinning the Table-1 statistics.
pub(crate) fn calibrate(values: &mut [f64], target: CalibrationTarget) {
    if values.is_empty() {
        return;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in generated signal"));
    let q1 = percentile(&sorted, 0.25);
    let q3 = percentile(&sorted, 0.75);
    let m = mean(values);
    let iqr = q3 - q1;
    let target_iqr = target.q3 - target.q1;
    let scale = if iqr.abs() < 1e-12 { 1.0 } else { target_iqr / iqr };
    for v in values.iter_mut() {
        *v = (*v - m) * scale + target.mean;
        *v = v.clamp(target.min, target.max);
    }
}

/// Convenience: seeded RNG for generation.
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn generation_is_deterministic() {
        let spec = SignalSpec::new()
            .with(Component::Seasonal { period: 24.0, amplitude: 2.0, phase: 0.0 })
            .with(Component::ArNoise { phi: 0.8, sigma: 0.5 });
        let a = spec.generate(500, &mut rng(7));
        let b = spec.generate(500, &mut rng(7));
        assert_eq!(a, b);
        let c = spec.generate(500, &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn constant_offsets_every_sample() {
        let spec = SignalSpec::new().with(Component::Constant(5.0)).with(Component::Constant(1.5));
        let v = spec.generate(3, &mut rng(0));
        assert_eq!(v, vec![6.5, 6.5, 6.5]);
    }

    #[test]
    fn seasonal_period_is_respected() {
        let spec =
            SignalSpec::new().with(Component::Seasonal { period: 8.0, amplitude: 1.0, phase: 0.0 });
        let v = spec.generate(16, &mut rng(0));
        // One full period later, the value repeats.
        assert!((v[0] - v[8]).abs() < 1e-9);
        assert!((v[2] - 1.0).abs() < 1e-9); // sin(pi/2)
    }

    #[test]
    fn ar_noise_is_autocorrelated() {
        let spec = SignalSpec::new().with(Component::ArNoise { phi: 0.95, sigma: 1.0 });
        let v = spec.generate(5000, &mut rng(42));
        // lag-1 autocorrelation should be close to phi
        let m = summarize(&v).mean;
        let num: f64 = v.windows(2).map(|w| (w[0] - m) * (w[1] - m)).sum();
        let den: f64 = v.iter().map(|x| (x - m) * (x - m)).sum();
        let ac1 = num / den;
        assert!(ac1 > 0.85, "lag-1 autocorrelation {ac1} too low");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng(1);
        let v: Vec<f64> = (0..20000).map(|_| gaussian(&mut r)).collect();
        let s = summarize(&v);
        assert!(s.mean.abs() < 0.05, "mean {}", s.mean);
        assert!((s.std_dev - 1.0).abs() < 0.05, "std {}", s.std_dev);
    }

    #[test]
    fn calibrate_hits_targets() {
        let spec = SignalSpec::new()
            .with(Component::Seasonal { period: 96.0, amplitude: 1.0, phase: 0.0 })
            .with(Component::ArNoise { phi: 0.7, sigma: 0.3 });
        let mut v = spec.generate(20000, &mut rng(3));
        let t = CalibrationTarget { mean: 13.32, q1: 7.0, q3: 18.0, min: -4.0, max: 46.0 };
        calibrate(&mut v, t);
        let s = summarize(&v);
        assert!((s.mean - 13.32).abs() < 1.0, "mean {}", s.mean);
        assert!((s.q1 - 7.0).abs() < 1.5, "q1 {}", s.q1);
        assert!((s.q3 - 18.0).abs() < 1.5, "q3 {}", s.q3);
        assert!(s.min >= -4.0 && s.max <= 46.0);
    }

    #[test]
    fn spikes_add_outliers() {
        let base = SignalSpec::new().with(Component::Constant(0.0));
        let spiky = SignalSpec::new().with(Component::Spikes { prob: 0.05, scale: 10.0 });
        let b = base.generate(2000, &mut rng(5));
        let s = spiky.generate(2000, &mut rng(5));
        assert!(b.iter().all(|&x| x == 0.0));
        assert!(s.iter().any(|&x| x.abs() > 5.0));
    }
}
