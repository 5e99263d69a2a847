//! ARIMA(p,d,q) with Fourier seasonal terms and AIC model selection
//! (Box & Jenkins; paper §3.4 "Arima ... with Fourier terms as exogenous
//! variables to model long seasonality", selected by AIC).
//!
//! Estimation uses the Hannan–Rissanen two-stage procedure: a long
//! autoregression provides residual estimates, then the ARMA coefficients
//! come from one OLS over lagged values and lagged residuals. Seasonality
//! is handled by fitting `K` Fourier harmonics of the seasonal period and
//! modelling the deseasonalized remainder with ARIMA; at prediction time
//! the window's phase is re-estimated by scanning all seasonal offsets,
//! since the evaluation interface supplies values only (Definition 7).

use neural::tensor::Tensor;
use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

use crate::linalg::lstsq;
use crate::model::{validate_batch, validate_window, ForecastError, Forecaster};
use crate::stateio;

/// ARIMA configuration.
#[derive(Debug, Clone)]
pub(crate) struct ArimaConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Maximum AR order searched.
    pub max_p: usize,
    /// Maximum differencing order searched.
    pub max_d: usize,
    /// Maximum MA order searched.
    pub max_q: usize,
    /// Seasonal period in samples (e.g. 96 for 15-minute daily data);
    /// `None` disables the Fourier stage.
    pub season: Option<usize>,
    /// Number of Fourier harmonic pairs.
    pub fourier_k: usize,
    /// Cap on training points used for estimation (most recent kept).
    pub max_train: usize,
}

impl Default for ArimaConfig {
    fn default() -> Self {
        ArimaConfig {
            input_len: 96,
            horizon: 24,
            max_p: 3,
            max_d: 1,
            max_q: 2,
            season: None,
            fourier_k: 2,
            max_train: 4000,
        }
    }
}

#[derive(Debug, Clone)]
struct Fitted {
    p: usize,
    d: usize,
    q: usize,
    /// AR coefficients φ_1..φ_p.
    phi: Vec<f64>,
    /// MA coefficients θ_1..θ_q.
    theta: Vec<f64>,
    /// ARMA intercept.
    intercept: f64,
    /// Fourier coefficients: `[(a_k sin, b_k cos); K]`.
    fourier: Vec<(f64, f64)>,
    season: Option<usize>,
    scaler: StandardScaler,
    /// Selected model's AIC (exposed for tests and reporting).
    aic: f64,
}

/// The ARIMA forecaster.
#[derive(Debug, Clone)]
pub(crate) struct Arima {
    config: ArimaConfig,
    fitted: Option<Fitted>,
}

impl Arima {
    /// Creates an unfitted model.
    pub(crate) fn new(config: ArimaConfig) -> Self {
        Arima { config, fitted: None }
    }

    fn seasonal_at(fourier: &[(f64, f64)], season: usize, t: f64) -> f64 {
        let w = std::f64::consts::TAU / season as f64;
        fourier
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| {
                let kw = (k + 1) as f64 * w;
                a * (kw * t).sin() + b * (kw * t).cos()
            })
            .sum()
    }

    /// Fits Fourier harmonics by OLS; returns coefficients and the
    /// deseasonalized series.
    fn fit_fourier(y: &[f64], season: usize, k: usize) -> (Vec<(f64, f64)>, Vec<f64>) {
        let n = y.len();
        let cols = 2 * k + 1; // harmonics + intercept column
        let w = std::f64::consts::TAU / season as f64;
        let mut x = Vec::with_capacity(n * cols);
        for t in 0..n {
            x.push(1.0);
            for h in 1..=k {
                let hw = h as f64 * w * t as f64;
                x.push(hw.sin());
                x.push(hw.cos());
            }
        }
        let beta = lstsq(&x, y, n, cols).unwrap_or_else(|_| vec![0.0; cols]);
        let fourier: Vec<(f64, f64)> = (0..k).map(|h| (beta[1 + 2 * h], beta[2 + 2 * h])).collect();
        let deseason: Vec<f64> = (0..n)
            .map(|t| y[t] - beta[0] - Self::seasonal_at(&fourier, season, t as f64))
            .collect();
        // Fold the Fourier intercept back into the series mean handled by
        // the ARMA intercept: keep deseasonalized values centered on beta0
        // removed (ARMA intercept will absorb any remainder).
        (fourier, deseason)
    }

    /// Differencing of order `d`.
    fn difference(y: &[f64], d: usize) -> Vec<f64> {
        let mut w = y.to_vec();
        for _ in 0..d {
            w = w.windows(2).map(|p| p[1] - p[0]).collect();
        }
        w
    }

    /// Hannan–Rissanen estimation of ARMA(p, q) on `w`.
    /// Returns `(phi, theta, intercept, sigma2, n_effective)`.
    #[allow(clippy::type_complexity)]
    fn hannan_rissanen(
        w: &[f64],
        p: usize,
        q: usize,
    ) -> Result<(Vec<f64>, Vec<f64>, f64, f64, usize), ForecastError> {
        let n = w.len();
        let m = (p + q + 5).max(10); // long-AR order for residual estimates
        if n < m + p + q + 10 {
            return Err(ForecastError::TooShort { needed: m + p + q + 10, got: n });
        }
        // Stage 1: long AR by OLS -> residuals.
        let rows1 = n - m;
        let cols1 = m + 1;
        let mut x1 = Vec::with_capacity(rows1 * cols1);
        let mut y1 = Vec::with_capacity(rows1);
        for t in m..n {
            x1.push(1.0);
            for i in 1..=m {
                x1.push(w[t - i]);
            }
            y1.push(w[t]);
        }
        let beta1 = lstsq(&x1, &y1, rows1, cols1)?;
        let mut resid = vec![0.0; n];
        for t in m..n {
            let mut pred = beta1[0];
            for i in 1..=m {
                pred += beta1[i] * w[t - i];
            }
            resid[t] = w[t] - pred;
        }
        // Stage 2: OLS of w_t on its lags and residual lags.
        let start = m + q.max(p);
        let rows2 = n - start;
        let cols2 = 1 + p + q;
        let mut x2 = Vec::with_capacity(rows2 * cols2);
        let mut y2 = Vec::with_capacity(rows2);
        for t in start..n {
            x2.push(1.0);
            for i in 1..=p {
                x2.push(w[t - i]);
            }
            for j in 1..=q {
                x2.push(resid[t - j]);
            }
            y2.push(w[t]);
        }
        let beta2 = lstsq(&x2, &y2, rows2, cols2)?;
        let intercept = beta2[0];
        let phi = beta2[1..1 + p].to_vec();
        let theta = beta2[1 + p..].to_vec();
        // Residual variance of the stage-2 fit.
        let mut sse = 0.0;
        for (r, &target) in y2.iter().enumerate() {
            let mut pred = 0.0;
            for c in 0..cols2 {
                pred += x2[r * cols2 + c] * beta2[c];
            }
            sse += (target - pred) * (target - pred);
        }
        let sigma2 = (sse / rows2 as f64).max(1e-12);
        Ok((phi, theta, intercept, sigma2, rows2))
    }

    /// Seasonal component at integer offsets `0..s + n + horizon`, or empty
    /// when the fit has no seasonal stage. The table holds the exact
    /// [`Self::seasonal_at`] values, so lookups reproduce the direct calls
    /// bitwise — and a batch shares one table instead of re-evaluating
    /// `s * n` sin/cos pairs per window in the phase scan.
    fn seasonal_table(f: &Fitted, n: usize, horizon: usize) -> Vec<f64> {
        match f.season {
            Some(s) if !f.fourier.is_empty() => {
                (0..s + n + horizon).map(|t| Self::seasonal_at(&f.fourier, s, t as f64)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Full forecast for one scaled window `y`, with the seasonal component
    /// supplied as a [`Self::seasonal_table`] lookup.
    fn forecast_scaled(f: &Fitted, y: &[f64], horizon: usize, seas: &[f64]) -> Vec<f64> {
        // Phase alignment: choose the seasonal offset minimizing SSE between
        // the window and the seasonal component.
        let (deseason, phase): (Vec<f64>, usize) = if seas.is_empty() {
            (y.to_vec(), 0)
        } else {
            let s = f.season.expect("non-empty table implies a season");
            let mut best_phase = 0usize;
            let mut best_sse = f64::INFINITY;
            for offset in 0..s {
                let sse: f64 = y
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| {
                        let sv = seas[offset + t];
                        (v - sv) * (v - sv)
                    })
                    .sum();
                if sse < best_sse {
                    best_sse = sse;
                    best_phase = offset;
                }
            }
            let d: Vec<f64> =
                y.iter().enumerate().map(|(t, &v)| v - seas[best_phase + t]).collect();
            (d, best_phase)
        };

        // Difference, run the residual recursion, then forecast.
        let mut w = Self::difference(&deseason, f.d);
        let mut e = Self::residuals(&w, &f.phi, &f.theta, f.intercept);
        let mut diffs = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let t = w.len();
            let mut pred = f.intercept;
            for (i, &ph) in f.phi.iter().enumerate() {
                if t > i {
                    pred += ph * w[t - i - 1];
                }
            }
            for (j, &th) in f.theta.iter().enumerate() {
                if t > j {
                    pred += th * e[t - j - 1];
                }
            }
            w.push(pred);
            e.push(0.0);
            diffs.push(pred);
        }

        // Integrate d times back to levels.
        let mut level_forecast = diffs;
        for depth in (0..f.d).rev() {
            // Value of the (depth)-times-differenced window's last point.
            let base_series = Self::difference(&deseason, depth);
            let mut last = *base_series.last().expect("window non-empty");
            for v in level_forecast.iter_mut() {
                last += *v;
                *v = last;
            }
        }

        // Re-add seasonality.
        let n = y.len();
        level_forecast
            .iter()
            .enumerate()
            .map(|(i, &v)| v + if seas.is_empty() { 0.0 } else { seas[phase + n + i] })
            .collect()
    }

    /// In-sample residual recursion used to seed the MA part at prediction.
    fn residuals(w: &[f64], phi: &[f64], theta: &[f64], intercept: f64) -> Vec<f64> {
        let p = phi.len();
        let q = theta.len();
        let mut e = vec![0.0; w.len()];
        for t in 0..w.len() {
            let mut pred = intercept;
            for (i, &ph) in phi.iter().enumerate() {
                if t > i {
                    pred += ph * w[t - i - 1];
                }
            }
            for (j, &th) in theta.iter().enumerate() {
                if t > j {
                    pred += th * e[t - j - 1];
                }
            }
            if t >= p.max(q) {
                e[t] = w[t] - pred;
            }
        }
        e
    }
}

impl Forecaster for Arima {
    fn name(&self) -> &'static str {
        "Arima"
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train: &MultiSeries, _val: &MultiSeries) -> Result<(), ForecastError> {
        let raw = train.target().values();
        let needed = self.config.input_len + self.config.horizon + 50;
        if raw.len() < needed {
            return Err(ForecastError::TooShort { needed, got: raw.len() });
        }
        let capped = &raw[raw.len().saturating_sub(self.config.max_train)..];
        let scaler = StandardScaler::fit_single(capped);
        let y = scaler.transform(0, capped);

        // Seasonal stage.
        let (fourier, deseason, season) = match self.config.season {
            Some(s) if s >= 2 && y.len() > 2 * s && self.config.fourier_k > 0 => {
                let (f, d) = Self::fit_fourier(&y, s, self.config.fourier_k);
                (f, d, Some(s))
            }
            _ => (Vec::new(), y.clone(), None),
        };

        // Grid search over (p, d, q) by AIC.
        let mut best: Option<Fitted> = None;
        for d in 0..=self.config.max_d {
            let w = Self::difference(&deseason, d);
            for p in 0..=self.config.max_p {
                for q in 0..=self.config.max_q {
                    if p == 0 && q == 0 {
                        continue;
                    }
                    let Ok((phi, theta, intercept, sigma2, n_eff)) =
                        Self::hannan_rissanen(&w, p, q)
                    else {
                        continue;
                    };
                    // Reject explosive AR fits (|sum phi| near/above 1 is a
                    // red flag for recursive multi-step forecasting).
                    let phi_sum: f64 = phi.iter().sum();
                    if phi_sum.abs() > 1.05 {
                        continue;
                    }
                    let k = (p + q + 1) as f64;
                    let aic = n_eff as f64 * sigma2.ln() + 2.0 * k;
                    if best.as_ref().is_none_or(|b| aic < b.aic) {
                        best = Some(Fitted {
                            p,
                            d,
                            q,
                            phi,
                            theta,
                            intercept,
                            fourier: fourier.clone(),
                            season,
                            scaler: scaler.clone(),
                            aic,
                        });
                    }
                }
            }
        }
        self.fitted =
            Some(best.ok_or_else(|| ForecastError::Numerical("no ARIMA candidate fit".into()))?);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let f = self.fitted.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_window(inputs, self.config.input_len)?;
        let y = f.scaler.transform(0, &inputs[0]);
        let seas = Self::seasonal_table(f, y.len(), self.config.horizon);
        let result = Self::forecast_scaled(f, &y, self.config.horizon, &seas);
        Ok(f.scaler.inverse(0, &result))
    }

    fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
        let f = self.fitted.as_ref().ok_or(ForecastError::NotFitted)?;
        validate_batch(windows, self.config.input_len)?;
        let k = self.config.input_len;
        let h = self.config.horizon;
        // The seasonal table dominates per-window cost (the phase scan
        // evaluates s*k sin/cos pairs without it); hoist it once per batch.
        let seas = Self::seasonal_table(f, k, h);
        let mut out = Tensor::zeros(windows.rows(), h);
        for r in 0..windows.rows() {
            let y = f.scaler.transform(0, &windows.data()[r * k..(r + 1) * k]);
            let result = Self::forecast_scaled(f, &y, h, &seas);
            out.data_mut()[r * h..(r + 1) * h].copy_from_slice(&f.scaler.inverse(0, &result));
        }
        Ok(out)
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        let f = self.fitted.as_ref().ok_or(ForecastError::NotFitted)?;
        let mut dict = neural::state::StateDict::new();
        stateio::put_tag(&mut dict, self.name());
        stateio::put_row(&mut dict, "arima.order", &[f.p as f64, f.d as f64, f.q as f64]);
        stateio::put_row(&mut dict, "arima.phi", &f.phi);
        stateio::put_row(&mut dict, "arima.theta", &f.theta);
        stateio::put_row(&mut dict, "arima.scalars", &[f.intercept, f.aic]);
        let flat: Vec<f64> = f.fourier.iter().flat_map(|&(a, b)| [a, b]).collect();
        stateio::put_row(&mut dict, "arima.fourier", &flat);
        stateio::put_row(&mut dict, "arima.season", &[f.season.map_or(-1.0, |s| s as f64)]);
        stateio::put_scaler(&mut dict, "arima.scaler", &f.scaler);
        Ok(dict)
    }

    fn load_state(&mut self, state: &neural::state::StateDict) -> Result<(), ForecastError> {
        stateio::check_tag(state, self.name())?;
        stateio::check_len(state, 9)?;
        let order = stateio::row(state, "arima.order")?;
        if order.len() != 3 {
            return Err(stateio::invalid("arima.order must hold [p, d, q]"));
        }
        let p = stateio::index(order[0], "arima p")?;
        let d = stateio::index(order[1], "arima d")?;
        let q = stateio::index(order[2], "arima q")?;
        let phi = stateio::row(state, "arima.phi")?.to_vec();
        let theta = stateio::row(state, "arima.theta")?.to_vec();
        if phi.len() != p || theta.len() != q {
            return Err(stateio::invalid(format!(
                "arima coefficient counts ({}, {}) disagree with order ({p}, {q})",
                phi.len(),
                theta.len()
            )));
        }
        let scalars = stateio::row(state, "arima.scalars")?;
        if scalars.len() != 2 {
            return Err(stateio::invalid("arima.scalars must hold [intercept, aic]"));
        }
        let flat = stateio::row(state, "arima.fourier")?;
        if !flat.len().is_multiple_of(2) {
            return Err(stateio::invalid("arima.fourier must hold (sin, cos) pairs"));
        }
        let fourier: Vec<(f64, f64)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let season_raw = stateio::scalar(state, "arima.season")?;
        let season =
            if season_raw < 0.0 { None } else { Some(stateio::index(season_raw, "arima season")?) };
        let scaler = stateio::get_scaler(state, "arima.scaler")?;
        self.fitted = Some(Fitted {
            p,
            d,
            q,
            phi,
            theta,
            intercept: scalars[0],
            fourier,
            season,
            scaler,
            aic: scalars[1],
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::series::RegularTimeSeries;

    fn uni(values: Vec<f64>) -> MultiSeries {
        MultiSeries::univariate("y", RegularTimeSeries::new(0, 900, values).unwrap())
    }

    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut y = vec![10.0];
        for _ in 1..n {
            let prev = *y.last().expect("non-empty");
            y.push(10.0 + phi * (prev - 10.0) + noise());
        }
        y
    }

    #[test]
    fn fits_and_predicts_ar1() {
        let data = ar1_series(2000, 0.8, 42);
        let (train, test) = data.split_at(1600);
        let mut model = Arima::new(ArimaConfig {
            input_len: 96,
            horizon: 24,
            season: None,
            ..Default::default()
        });
        model.fit(&uni(train.to_vec()), &uni(test.to_vec())).unwrap();
        let p = model.fitted.as_ref().expect("fitted").p;
        assert!(p >= 1, "AR(1) data should select p >= 1");
        let window = test[..96].to_vec();
        let pred = model.predict(&[window]).unwrap();
        assert_eq!(pred.len(), 24);
        // Forecast should revert toward the mean 10 and stay bounded.
        assert!(pred.iter().all(|v| (0.0..20.0).contains(v)), "{pred:?}");
    }

    #[test]
    fn seasonal_fourier_improves_seasonal_forecast() {
        let n = 3000;
        let season = 48usize;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                10.0 + 4.0 * (i as f64 / season as f64 * std::f64::consts::TAU).sin()
                    + ((i * 13) % 7) as f64 * 0.02
            })
            .collect();
        let (train, test) = data.split_at(2400);
        let horizon = 24;
        let window = test[..96].to_vec();
        let actual = &test[96..96 + horizon];

        let mut seasonal =
            Arima::new(ArimaConfig { season: Some(season), fourier_k: 2, ..Default::default() });
        seasonal.fit(&uni(train.to_vec()), &uni(test.to_vec())).unwrap();
        let pred_s = seasonal.predict(std::slice::from_ref(&window)).unwrap();

        let mut plain = Arima::new(ArimaConfig { season: None, ..Default::default() });
        plain.fit(&uni(train.to_vec()), &uni(test.to_vec())).unwrap();
        let pred_p = plain.predict(&[window]).unwrap();

        let rmse = |pred: &[f64]| tsdata::metrics::rmse(actual, pred);
        assert!(
            rmse(&pred_s) <= rmse(&pred_p) + 0.3,
            "seasonal {} vs plain {}",
            rmse(&pred_s),
            rmse(&pred_p)
        );
        // And the seasonal forecast should actually track the oscillation.
        assert!(rmse(&pred_s) < 2.0, "seasonal rmse {}", rmse(&pred_s));
    }

    #[test]
    fn differencing_handles_trends() {
        let data: Vec<f64> =
            (0..1500).map(|i| 5.0 + 0.01 * i as f64 + ((i * 7) % 5) as f64 * 0.05).collect();
        let (train, test) = data.split_at(1200);
        let mut model = Arima::new(ArimaConfig { season: None, ..Default::default() });
        model.fit(&uni(train.to_vec()), &uni(test.to_vec())).unwrap();
        let window = test[..96].to_vec();
        let pred = model.predict(std::slice::from_ref(&window)).unwrap();
        // Trend should continue upward from the window's end.
        let last = window[95];
        let mean_pred = pred.iter().sum::<f64>() / pred.len() as f64;
        assert!(mean_pred > last - 0.5, "trend lost: {mean_pred} vs {last}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let model = Arima::new(ArimaConfig::default());
        assert_eq!(model.predict(&[vec![0.0; 96]]).unwrap_err(), ForecastError::NotFitted);
    }

    #[test]
    fn wrong_window_length_rejected() {
        let data = ar1_series(1500, 0.5, 7);
        let mut model = Arima::new(ArimaConfig { season: None, ..Default::default() });
        model.fit(&uni(data.clone()), &uni(data)).unwrap();
        assert!(matches!(
            model.predict(&[vec![0.0; 10]]).unwrap_err(),
            ForecastError::BadWindow { .. }
        ));
    }

    #[test]
    fn too_short_series_rejected() {
        let mut model = Arima::new(ArimaConfig::default());
        let short = uni(vec![1.0; 50]);
        assert!(matches!(model.fit(&short, &short).unwrap_err(), ForecastError::TooShort { .. }));
    }

    #[test]
    fn difference_helper() {
        assert_eq!(Arima::difference(&[1.0, 3.0, 6.0, 10.0], 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(Arima::difference(&[1.0, 3.0, 6.0, 10.0], 2), vec![1.0, 1.0]);
        assert_eq!(Arima::difference(&[5.0, 5.0], 0), vec![5.0, 5.0]);
    }
}
