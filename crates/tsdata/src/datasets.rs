//! Synthetic recreations of the paper's six datasets.
//!
//! The real datasets (ETTm1/2, Solar, Weather, ElecDem, Wind) are not
//! redistributable here, so each is regenerated from `crate::generators`
//! building blocks and calibrated to the descriptive statistics the paper
//! reports in Table 1 (length, sampling interval, mean, min, max, Q1, Q3 and
//! hence rIQD), plus the qualitative structure the paper's analyses rely on:
//! daily/weekly seasonality, night-time zeros for Solar, the tiny relative
//! spread of Weather, and the 2-second high-autocorrelation Wind signal.
//! See DESIGN.md §1 for the substitution argument.

use rand::RngExt;

use crate::generators::{calibrate, rng, CalibrationTarget, Component, SignalSpec};
use crate::series::{MultiSeries, RegularTimeSeries};
use crate::stats::percentile;

/// The six evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Electrical transformer temperature, 15-minute sampling (variant 1).
    ETTm1,
    /// Electrical transformer temperature, 15-minute sampling (variant 2).
    ETTm2,
    /// Photovoltaic plant power output, 10-minute sampling, 137 plants.
    Solar,
    /// Meteorological indicators, 10-minute sampling, 21 channels.
    Weather,
    /// Half-hourly electricity demand of Victoria, Australia.
    ElecDem,
    /// Wind-turbine active power, 2-second sampling, 10 channels.
    Wind,
}

/// All six datasets in the paper's order.
pub const ALL_DATASETS: [DatasetKind; 6] = [
    DatasetKind::ETTm1,
    DatasetKind::ETTm2,
    DatasetKind::Solar,
    DatasetKind::Weather,
    DatasetKind::ElecDem,
    DatasetKind::Wind,
];

/// Table-1 row: the statistics each generator is calibrated against.
#[derive(Debug, Clone, Copy)]
pub struct PaperStats {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Number of points.
    pub len: usize,
    /// Sampling interval in seconds.
    pub interval_s: i64,
    /// Human-readable frequency (Table 1 "FREQ" column).
    pub freq: &'static str,
    /// Mean of the target variable.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Relative inter-quartile difference, percent.
    pub riqd: f64,
}

impl DatasetKind {
    /// The paper's Table-1 statistics for this dataset.
    pub fn paper_stats(self) -> PaperStats {
        match self {
            DatasetKind::ETTm1 => PaperStats {
                name: "ETTm1",
                len: 69_680,
                interval_s: 15 * 60,
                freq: "15min",
                mean: 13.32,
                min: -4.0,
                max: 46.0,
                q1: 7.0,
                q3: 18.0,
                riqd: 82.0,
            },
            DatasetKind::ETTm2 => PaperStats {
                name: "ETTm2",
                len: 69_680,
                interval_s: 15 * 60,
                freq: "15min",
                mean: 26.60,
                min: -3.0,
                max: 58.0,
                q1: 16.0,
                q3: 36.0,
                riqd: 75.0,
            },
            DatasetKind::Solar => PaperStats {
                name: "Solar",
                len: 52_560,
                interval_s: 10 * 60,
                freq: "10min",
                mean: 6.35,
                min: 0.0,
                max: 34.0,
                q1: 0.0,
                q3: 12.0,
                riqd: 200.0,
            },
            DatasetKind::Weather => PaperStats {
                name: "Weather",
                len: 52_704,
                interval_s: 10 * 60,
                freq: "10min",
                mean: 427.66,
                min: 305.0,
                max: 524.0,
                q1: 415.0,
                q3: 437.0,
                riqd: 5.0,
            },
            DatasetKind::ElecDem => PaperStats {
                name: "ElecDem",
                len: 230_736,
                interval_s: 30 * 60,
                freq: "30min",
                mean: 6_740.0,
                min: 3_498.0,
                max: 12_865.0,
                q1: 5_751.0,
                q3: 7_658.0,
                riqd: 28.0,
            },
            DatasetKind::Wind => PaperStats {
                name: "Wind",
                len: 432_000,
                interval_s: 2,
                freq: "2sec",
                mean: 363.69,
                min: -68.0,
                max: 2_030.0,
                q1: 108.0,
                q3: 550.0,
                riqd: 121.0,
            },
        }
    }

    /// Dataset name.
    pub fn name(self) -> &'static str {
        self.paper_stats().name
    }

    /// Samples per day at this dataset's sampling interval.
    pub fn samples_per_day(self) -> f64 {
        86_400.0 / self.paper_stats().interval_s as f64
    }

    /// Name of the paper's forecasting target variable.
    fn target_name(self) -> &'static str {
        match self {
            DatasetKind::ETTm1 | DatasetKind::ETTm2 => "OT",
            DatasetKind::Solar => "PV_000",
            DatasetKind::Weather => "CO2",
            DatasetKind::ElecDem => "demand",
            DatasetKind::Wind => "active_power",
        }
    }
}

/// Generation options: length/channel overrides for fast test and bench
/// runs, plus the RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Number of points; `None` uses the paper's full length.
    pub len: Option<usize>,
    /// Number of channels; `None` generates the target alone. The paper's
    /// models forecast only the target, so no experiment reads another
    /// channel. `Some(n)` adds `n - 1` auxiliary channels correlated with
    /// the target, for tests of the multivariate container; the target's
    /// values are the same either way.
    pub channels: Option<usize>,
    /// RNG seed; every call with the same options is bit-identical.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { len: None, channels: None, seed: 0x5EED }
    }
}

impl GenOptions {
    /// Shorthand for a truncated dataset.
    pub fn with_len(len: usize) -> Self {
        GenOptions { len: Some(len), ..Default::default() }
    }
}

/// Generates the dataset as a calibrated series with the target channel
/// marked: the target alone unless [`GenOptions::channels`] asks for more.
///
/// ```
/// use tsdata::datasets::{generate, DatasetKind, GenOptions};
/// let data = generate(DatasetKind::ETTm1, GenOptions::with_len(500));
/// assert_eq!(data.len(), 500);
/// assert_eq!(data.num_channels(), 1);
/// assert_eq!(data.names()[data.target_index()], "OT");
/// assert_eq!(data.target().interval(), 900); // 15 minutes
/// ```
pub fn generate(kind: DatasetKind, opts: GenOptions) -> MultiSeries {
    let stats = kind.paper_stats();
    let n = opts.len.unwrap_or(stats.len).max(8);
    let channels = opts.channels.unwrap_or(1).max(1);
    let mut r = rng(opts.seed ^ dataset_salt(kind));

    // The target is drawn first, so auxiliary channels never move its bits.
    let target_values = generate_target(kind, n, &mut r);
    let mut names = vec![kind.target_name().to_string()];
    let mut series = vec![make_series(stats.interval_s, target_values.clone())];

    for ch in 1..channels {
        let own = generate_target(kind, n, &mut r);
        // Correlate auxiliary channels with the target, as real multivariate
        // sensor data is: shared physical driver plus per-channel variation.
        let mix: Vec<f64> =
            target_values.iter().zip(&own).map(|(t, o)| 0.6 * t + 0.4 * o).collect();
        names.push(channel_name(kind, ch));
        series.push(make_series(stats.interval_s, mix));
    }

    MultiSeries::new(names, series, 0).expect("generated channels are aligned by construction")
}

/// Generates only the target channel (univariate), calibrated.
pub fn generate_univariate(kind: DatasetKind, opts: GenOptions) -> RegularTimeSeries {
    let stats = kind.paper_stats();
    let n = opts.len.unwrap_or(stats.len).max(8);
    let mut r = rng(opts.seed ^ dataset_salt(kind));
    make_series(stats.interval_s, generate_target(kind, n, &mut r))
}

fn dataset_salt(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::ETTm1 => 0x01,
        DatasetKind::ETTm2 => 0x02,
        DatasetKind::Solar => 0x03,
        DatasetKind::Weather => 0x04,
        DatasetKind::ElecDem => 0x05,
        DatasetKind::Wind => 0x06,
    }
}

fn channel_name(kind: DatasetKind, ch: usize) -> String {
    match kind {
        DatasetKind::ETTm1 | DatasetKind::ETTm2 => {
            ["OT", "HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL"]
                .get(ch)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("load_{ch}"))
        }
        DatasetKind::Solar => format!("PV_{ch:03}"),
        DatasetKind::Weather => ["CO2", "T", "p", "rh", "wv", "rain", "SWDR"]
            .get(ch)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("met_{ch}")),
        DatasetKind::ElecDem => format!("aux_{ch}"),
        DatasetKind::Wind => ["active_power", "rotor_speed", "wind_speed", "pitch", "nacelle_temp"]
            .get(ch)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("turbine_{ch}")),
    }
}

fn make_series(interval: i64, values: Vec<f64>) -> RegularTimeSeries {
    // Fixed epoch start keeps timestamps deterministic across runs.
    RegularTimeSeries::new(1_672_531_200, interval, values).expect("non-empty generated series")
}

/// Decimal places each dataset's sensor reports — real meter data is
/// quantized, which is what lets lossless compressors (gzip on the raw
/// data, Gorilla) find repeated values.
fn decimals(kind: DatasetKind) -> u32 {
    match kind {
        // Oil temperature is reported in hundredths of a degree.
        DatasetKind::ETTm1 | DatasetKind::ETTm2 => 2,
        // PV output in tenths of a MW.
        DatasetKind::Solar => 1,
        // CO2 in tenths of a ppm.
        DatasetKind::Weather => 1,
        // Demand in whole MW.
        DatasetKind::ElecDem => 0,
        // Turbine active power in whole kW.
        DatasetKind::Wind => 0,
    }
}

fn quantize(values: &mut [f64], decimals: u32) {
    let k = 10f64.powi(decimals as i32);
    for v in values.iter_mut() {
        *v = (*v * k).round() / k;
    }
}

fn generate_target(kind: DatasetKind, n: usize, r: &mut rand::rngs::StdRng) -> Vec<f64> {
    let mut v = generate_target_raw(kind, n, r);
    quantize(&mut v, decimals(kind));
    v
}

fn generate_target_raw(kind: DatasetKind, n: usize, r: &mut rand::rngs::StdRng) -> Vec<f64> {
    let stats = kind.paper_stats();
    let day = kind.samples_per_day();
    let target = CalibrationTarget {
        mean: stats.mean,
        q1: stats.q1,
        q3: stats.q3,
        min: stats.min,
        max: stats.max,
    };
    match kind {
        DatasetKind::ETTm1 => {
            // Oil temperature: strong daily cycle, weekly modulation, slow
            // drift, moderately rough AR noise.
            let spec = SignalSpec::new()
                .with(Component::Seasonal { period: day, amplitude: 1.0, phase: 0.3 })
                .with(Component::Seasonal { period: 7.0 * day, amplitude: 0.5, phase: 1.1 })
                .with(Component::RandomWalk { sigma: 0.02, revert: 0.0005 })
                .with(Component::ArNoise { phi: 0.96, sigma: 0.06 })
                // Sensor glitches / load transients: rare heavy-tailed
                // outliers, which the PEBLC methods must preserve when they
                // exceed the bound (paper §1) — these keep segment counts
                // realistic at large error bounds.
                .with(Component::Spikes { prob: 0.008, scale: 1.0 });
            let mut v = spec.generate(n, r);
            calibrate(&mut v, target);
            v
        }
        DatasetKind::ETTm2 => {
            // Smoother variant with a longer seasonal memory.
            let spec = SignalSpec::new()
                .with(Component::Seasonal { period: day, amplitude: 0.8, phase: 0.0 })
                .with(Component::Seasonal { period: 7.0 * day, amplitude: 0.9, phase: 0.4 })
                .with(Component::RandomWalk { sigma: 0.015, revert: 0.0003 })
                .with(Component::ArNoise { phi: 0.97, sigma: 0.04 })
                .with(Component::Spikes { prob: 0.005, scale: 0.8 });
            let mut v = spec.generate(n, r);
            calibrate(&mut v, target);
            v
        }
        DatasetKind::Solar => {
            // Daytime bell with night-time zeros; cloud cover modulates
            // amplitude. Calibrated multiplicatively so the zeros (and thus
            // Q1 = 0, rIQD = 200%) survive.
            let cloud = SignalSpec::new()
                .with(Component::Constant(0.75))
                .with(Component::RandomWalk { sigma: 0.01, revert: 0.02 })
                .generate(n, r);
            let mut v = Vec::with_capacity(n);
            for (i, &c) in cloud.iter().enumerate() {
                let phase = (i as f64 % day) / day; // 0..1 through the day
                                                    // Daylight from 0.25 to 0.75 of the day; sin bell over it.
                let bell = if (0.25..0.75).contains(&phase) {
                    ((phase - 0.25) / 0.5 * std::f64::consts::PI).sin()
                } else {
                    0.0
                };
                let noise = 1.0 + 0.12 * crate::generators::gaussian(r);
                let x = (bell * c.clamp(0.05, 1.5) * noise).max(0.0);
                v.push(x);
            }
            // Multiplicative calibration to hit Q3 while keeping zeros.
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let q3 = percentile(&sorted, 0.75).max(1e-9);
            let scale = stats.q3 / q3;
            for x in v.iter_mut() {
                *x = (*x * scale).clamp(stats.min, stats.max);
            }
            v
        }
        DatasetKind::Weather => {
            // CO2 concentration: tight band around the mean (rIQD 5%), slow
            // diurnal cycle plus mean-reverting drift.
            let spec = SignalSpec::new()
                .with(Component::Seasonal { period: day, amplitude: 0.6, phase: 0.9 })
                .with(Component::RandomWalk { sigma: 0.03, revert: 0.002 })
                .with(Component::ArNoise { phi: 0.8, sigma: 0.12 })
                .with(Component::Spikes { prob: 0.0008, scale: 2.0 });
            let mut v = spec.generate(n, r);
            calibrate(&mut v, target);
            v
        }
        DatasetKind::ElecDem => {
            // Electricity demand: daily + weekly + annual seasonality with
            // amplitude-modulated daily peaks.
            let year = 365.25 * day;
            let spec = SignalSpec::new()
                .with(Component::ModulatedSeasonal {
                    period: day,
                    amplitude: 1.0,
                    mod_period: year,
                    depth: 0.35,
                })
                .with(Component::Seasonal { period: 7.0 * day, amplitude: 0.35, phase: 0.2 })
                .with(Component::Seasonal { period: year, amplitude: 0.5, phase: 2.0 })
                .with(Component::ArNoise { phi: 0.85, sigma: 0.15 });
            let mut v = spec.generate(n, r);
            calibrate(&mut v, target);
            v
        }
        DatasetKind::Wind => {
            // Active power: near-unit-root wind speed pushed through a
            // cubic power curve that saturates at rated power, with gust
            // spikes and small negative idle consumption.
            let wind = SignalSpec::new()
                .with(Component::Constant(7.0))
                .with(Component::RandomWalk { sigma: 0.06, revert: 0.001 })
                .with(Component::ArNoise { phi: 0.98, sigma: 0.08 })
                .with(Component::Seasonal { period: day, amplitude: 1.5, phase: 0.0 })
                .generate(n, r);
            let mut v: Vec<f64> = wind
                .iter()
                .map(|&w| {
                    let w = w.max(0.0);
                    let cut_in = 3.0;
                    let rated = 12.0;
                    if w < cut_in {
                        // Idle turbine draws a little power from the grid.
                        -0.02 - 0.01 * r.random::<f64>()
                    } else if w < rated {
                        let x = (w - cut_in) / (rated - cut_in);
                        x * x * x
                    } else {
                        1.0
                    }
                })
                .collect();
            calibrate(
                &mut v,
                CalibrationTarget {
                    mean: stats.mean,
                    q1: stats.q1,
                    q3: stats.q3,
                    min: stats.min,
                    max: stats.max,
                },
            );
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    const TEST_LEN: usize = 20_000;

    fn tolerance_check(kind: DatasetKind) {
        let s = generate_univariate(kind, GenOptions::with_len(TEST_LEN));
        let stats = kind.paper_stats();
        let got = summarize(s.values());
        let span = stats.max - stats.min;
        assert!(
            (got.mean - stats.mean).abs() < 0.12 * span,
            "{}: mean {} vs paper {}",
            stats.name,
            got.mean,
            stats.mean
        );
        assert!(
            (got.q1 - stats.q1).abs() < 0.12 * span,
            "{}: q1 {} vs paper {}",
            stats.name,
            got.q1,
            stats.q1
        );
        assert!(
            (got.q3 - stats.q3).abs() < 0.12 * span,
            "{}: q3 {} vs paper {}",
            stats.name,
            got.q3,
            stats.q3
        );
        assert!(got.min >= stats.min - 1e-9, "{}: min {}", stats.name, got.min);
        assert!(got.max <= stats.max + 1e-9, "{}: max {}", stats.name, got.max);
    }

    #[test]
    fn ettm1_calibrated() {
        tolerance_check(DatasetKind::ETTm1);
    }

    #[test]
    fn ettm2_calibrated() {
        tolerance_check(DatasetKind::ETTm2);
    }

    #[test]
    fn solar_calibrated() {
        tolerance_check(DatasetKind::Solar);
    }

    #[test]
    fn weather_calibrated() {
        tolerance_check(DatasetKind::Weather);
    }

    #[test]
    fn elecdem_calibrated() {
        tolerance_check(DatasetKind::ElecDem);
    }

    #[test]
    fn wind_calibrated() {
        tolerance_check(DatasetKind::Wind);
    }

    #[test]
    fn solar_has_night_zeros() {
        let s = generate_univariate(DatasetKind::Solar, GenOptions::with_len(TEST_LEN));
        let zeros = s.values().iter().filter(|&&v| v == 0.0).count();
        // Half the day is night; Q1 must be 0 as in the paper.
        assert!(zeros as f64 > 0.25 * TEST_LEN as f64, "only {zeros} zeros");
        let got = summarize(s.values());
        assert_eq!(got.q1, 0.0);
    }

    #[test]
    fn weather_riqd_is_small() {
        let s = generate_univariate(DatasetKind::Weather, GenOptions::with_len(TEST_LEN));
        let got = summarize(s.values());
        assert!(got.riqd < 15.0, "Weather rIQD {} should be small", got.riqd);
    }

    #[test]
    fn riqd_ordering_matches_paper() {
        // Paper: Solar (200%) > Wind (121%) > ETTm1 (82%) > ETTm2 (75%)
        //        > ElecDem (28%) > Weather (5%)
        let riqd =
            |k| summarize(generate_univariate(k, GenOptions::with_len(TEST_LEN)).values()).riqd;
        let solar = riqd(DatasetKind::Solar);
        let wind = riqd(DatasetKind::Wind);
        let ettm1 = riqd(DatasetKind::ETTm1);
        let elec = riqd(DatasetKind::ElecDem);
        let weather = riqd(DatasetKind::Weather);
        assert!(solar > wind, "solar {solar} wind {wind}");
        assert!(wind > ettm1, "wind {wind} ettm1 {ettm1}");
        assert!(ettm1 > elec, "ettm1 {ettm1} elec {elec}");
        assert!(elec > weather, "elec {elec} weather {weather}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetKind::ETTm1, GenOptions::with_len(500));
        let b = generate(DatasetKind::ETTm1, GenOptions::with_len(500));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(500));
        let b = generate_univariate(
            DatasetKind::ETTm1,
            GenOptions { len: Some(500), channels: None, seed: 999 },
        );
        assert_ne!(a.values(), b.values());
    }

    #[test]
    fn channel_counts_and_target() {
        let m = generate(
            DatasetKind::Solar,
            GenOptions { len: Some(300), channels: Some(8), seed: 0x5EED },
        );
        assert_eq!(m.num_channels(), 8);
        assert_eq!(m.names()[0], "PV_000");
        assert_eq!(m.target_index(), 0);
        let m2 = generate(
            DatasetKind::Weather,
            GenOptions { len: Some(300), channels: Some(3), seed: 1 },
        );
        assert_eq!(m2.num_channels(), 3);
    }

    #[test]
    fn full_length_default() {
        // Only check the cheap metadata path, not a full generation.
        assert_eq!(DatasetKind::ElecDem.paper_stats().len, 230_736);
        assert_eq!(DatasetKind::Wind.paper_stats().interval_s, 2);
        assert_eq!(DatasetKind::ETTm1.samples_per_day(), 96.0);
        assert_eq!(DatasetKind::ElecDem.samples_per_day(), 48.0);
    }

    #[test]
    fn default_generates_the_target_alone() {
        for kind in ALL_DATASETS {
            let m = generate(kind, GenOptions::with_len(500));
            assert_eq!(m.num_channels(), 1, "{}", kind.name());
            assert_eq!(m.names()[0], kind.target_name());
            let bits = |s: &RegularTimeSeries| -> Vec<u64> {
                s.values().iter().map(|v| v.to_bits()).collect()
            };
            let uni = generate_univariate(kind, GenOptions::with_len(500));
            assert_eq!(bits(m.target()), bits(&uni), "{}", kind.name());
            let wide =
                generate(kind, GenOptions { len: Some(500), channels: Some(7), seed: 0x5EED });
            assert_eq!(bits(wide.target()), bits(&uni), "{}: aux channels moved it", kind.name());
        }
    }

    #[test]
    fn aux_channels_correlate_with_target() {
        let m = generate(
            DatasetKind::ETTm1,
            GenOptions { len: Some(4000), channels: Some(7), seed: 0x5EED },
        );
        let t = m.target().values();
        let aux = m.channels()[1].values();
        let r = crate::metrics::pearson(t, aux);
        assert!(r > 0.3, "aux channel correlation {r} too low");
    }
}
