//! # analysis — time-series characteristics and explanation toolkit
//!
//! The statistical machinery behind the paper's result analysis (§4):
//!
//! * [`features`] — the 42 tsfeatures characteristics (§4.3.1), built on
//!   [`acf`], [`decomp`], [`rolling`], [`spectral`], [`unitroot`], [`holt`].
//! * [`shap`] — exact TreeSHAP over `forecast`'s gradient-boosted trees
//!   (Figure 5's importance ranking).
//! * [`mod@kneedle`] — Kneedle elbow detection (§4.3.2, Table 5).
//! * [`regress`] — OLS with standard errors (Table 3).
//! * [`correlation`] — Spearman/Pearson (Table 4).

pub mod acf;
pub mod correlation;
pub mod decomp;
pub mod features;
pub mod holt;
pub mod kneedle;
pub mod regress;
pub mod rolling;
pub mod shap;
pub mod spectral;
pub mod unitroot;

pub use correlation::spearman;
pub use features::{extract, FeatureOptions, FeatureVector, FEATURE_NAMES, NUM_FEATURES};
pub use kneedle::{kneedle, Shape};
pub use regress::{linear_fit, LinFit};
pub use shap::{gbm_shap, mean_abs_shap, tree_shap};
