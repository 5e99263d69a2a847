//! # analysis — time-series characteristics and explanation toolkit
//!
//! The statistical machinery behind the paper's result analysis (§4):
//!
//! * [`features`] — the 42 tsfeatures characteristics (§4.3.1), built on
//!   [`acf`], `decomp`, [`rolling`], `spectral`, `unitroot`, `holt`.
//! * [`shap`] — exact TreeSHAP over `forecast`'s gradient-boosted trees
//!   (Figure 5's importance ranking).
//! * [`mod@kneedle`] — Kneedle elbow detection (§4.3.2, Table 5).
//! * [`regress`] — OLS with standard errors (Table 3).
//! * [`correlation`] — Spearman/Pearson (Table 4).

pub mod acf;
pub mod correlation;
mod decomp;
pub mod features;
mod holt;
pub mod kneedle;
pub mod regress;
pub mod rolling;
pub mod shap;
mod spectral;
mod unitroot;
