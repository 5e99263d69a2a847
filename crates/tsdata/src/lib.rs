//! # tsdata — time-series data model, datasets and metrics
//!
//! The data substrate of the EvalImpLSTS reproduction:
//!
//! * [`series`] — regular/irregular time series and multivariate bundles
//!   (paper Definitions 1–5).
//! * [`stats`] — descriptive statistics (Table 1).
//! * [`metrics`] — RMSE/NRMSE/RSE/R (the TE and FE distances) plus TFE
//!   and CR (paper §3.5, Definitions 6–9, Eq. 3).
//! * [`scaler`] — the standard scaler applied to model inputs (§3.4).
//! * [`mod@split`] — 70/10/20 chronological splits and sliding windows (§3.6).
//! * `generators` / [`datasets`] — deterministic synthetic recreations of
//!   the six evaluation datasets calibrated to Table 1.
//! * [`csv`] — ETT-style CSV import/export for running on real data.

pub mod csv;
pub mod datasets;
mod generators;
pub mod metrics;
pub mod scaler;
pub mod series;
pub mod split;
pub mod stats;
