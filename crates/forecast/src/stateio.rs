//! Shared helpers for encoding model state into [`StateDict`]s.
//!
//! Every model serializes to named `f64` tensors only: scalars become
//! `1×1` tensors, index vectors store exact integers as `f64` (lossless up
//! to 2^53, far beyond any tree index or ARMA order here), and a
//! `meta.model` tag carries the model name so a snapshot cannot be loaded
//! into the wrong forecaster kind.

use neural::graph::ParamStore;
use neural::state::StateDict;
use neural::tensor::Tensor;
use tsdata::scaler::StandardScaler;

use crate::model::ForecastError;

/// Name of the model-kind tag entry.
const MODEL_TAG: &str = "meta.model";
/// Prefix under which network parameters are stored.
const PARAM_PREFIX: &str = "param.";

pub(crate) fn invalid(msg: impl Into<String>) -> ForecastError {
    ForecastError::InvalidState(msg.into())
}

/// Stores `values` as a `1×n` tensor (possibly empty).
pub(crate) fn put_row(dict: &mut StateDict, name: &str, values: &[f64]) {
    dict.insert(name, Tensor::new(1, values.len(), values.to_vec()));
}

/// Fetches an entry of any shape as a flat slice.
pub(crate) fn row<'d>(dict: &'d StateDict, name: &str) -> Result<&'d [f64], ForecastError> {
    dict.get(name).map(Tensor::data).ok_or_else(|| invalid(format!("missing entry `{name}`")))
}

/// Fetches a single-element entry.
pub(crate) fn scalar(dict: &StateDict, name: &str) -> Result<f64, ForecastError> {
    let data = row(dict, name)?;
    if data.len() != 1 {
        return Err(invalid(format!("entry `{name}` has {} values, expected 1", data.len())));
    }
    Ok(data[0])
}

/// Interprets `v` as an exact non-negative integer.
pub(crate) fn index(v: f64, what: &str) -> Result<usize, ForecastError> {
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > 2f64.powi(53) {
        return Err(invalid(format!("{what} is not a valid index: {v}")));
    }
    Ok(v as usize)
}

/// Stores the scaler as `{prefix}.means` / `{prefix}.stds`.
pub(crate) fn put_scaler(dict: &mut StateDict, prefix: &str, scaler: &StandardScaler) {
    let n = scaler.num_channels();
    let means: Vec<f64> = (0..n).map(|c| scaler.mean_of(c)).collect();
    let stds: Vec<f64> = (0..n).map(|c| scaler.std_of(c)).collect();
    put_row(dict, &format!("{prefix}.means"), &means);
    put_row(dict, &format!("{prefix}.stds"), &stds);
}

/// Restores a scaler stored by [`put_scaler`].
pub(crate) fn get_scaler(dict: &StateDict, prefix: &str) -> Result<StandardScaler, ForecastError> {
    let means = row(dict, &format!("{prefix}.means"))?.to_vec();
    let stds = row(dict, &format!("{prefix}.stds"))?.to_vec();
    if means.len() != stds.len() {
        return Err(invalid(format!("scaler `{prefix}` means/stds length mismatch")));
    }
    Ok(StandardScaler::from_parts(means, stds))
}

/// Tags the dict with the producing model's name.
pub(crate) fn put_tag(dict: &mut StateDict, model_name: &str) {
    let bytes: Vec<f64> = model_name.bytes().map(f64::from).collect();
    put_row(dict, MODEL_TAG, &bytes);
}

/// Rejects snapshots produced by a different model kind.
pub(crate) fn check_tag(dict: &StateDict, expected: &str) -> Result<(), ForecastError> {
    let bytes = row(dict, MODEL_TAG)?;
    let found: String = bytes
        .iter()
        .map(|&b| {
            if (0.0..256.0).contains(&b) && b.fract() == 0.0 {
                Ok(b as u8 as char)
            } else {
                Err(invalid("malformed model tag"))
            }
        })
        .collect::<Result<String, _>>()?;
    if found != expected {
        return Err(invalid(format!("snapshot is for model `{found}`, expected `{expected}`")));
    }
    Ok(())
}

/// Exports every store parameter under `param.{name}`.
pub(crate) fn put_params(dict: &mut StateDict, store: &ParamStore) {
    for id in store.ids() {
        dict.insert(&format!("{PARAM_PREFIX}{}", store.name(id)), store.value(id).clone());
    }
}

/// Imports every store parameter from `param.{name}` entries, requiring
/// exact shapes. The store must already have the target architecture
/// (rebuilt with the model's seeded constructor).
pub(crate) fn get_params(store: &mut ParamStore, dict: &StateDict) -> Result<(), ForecastError> {
    for id in store.ids().collect::<Vec<_>>() {
        let name = format!("{PARAM_PREFIX}{}", store.name(id));
        let src = dict.get(&name).ok_or_else(|| invalid(format!("missing entry `{name}`")))?;
        let expected = store.value(id).shape();
        if src.shape() != expected {
            return Err(invalid(format!(
                "entry `{name}` has shape {}x{}, expected {}x{}",
                src.shape().0,
                src.shape().1,
                expected.0,
                expected.1
            )));
        }
        *store.value_mut(id) = src.clone();
    }
    Ok(())
}

/// Rejects dicts holding more entries than `expected` — a cheap guard
/// against snapshots from a differently sized architecture whose extra
/// tensors would otherwise be silently ignored.
pub(crate) fn check_len(dict: &StateDict, expected: usize) -> Result<(), ForecastError> {
    if dict.len() != expected {
        return Err(invalid(format!("snapshot has {} entries, expected {expected}", dict.len())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_and_mismatch() {
        let mut dict = StateDict::new();
        put_tag(&mut dict, "GRU");
        assert!(check_tag(&dict, "GRU").is_ok());
        let err = check_tag(&dict, "Arima").unwrap_err();
        assert!(matches!(err, ForecastError::InvalidState(_)));
    }

    #[test]
    fn scaler_roundtrip() {
        let sc = StandardScaler::fit(&[&[1.0, 3.0][..], &[10.0, 30.0][..]]);
        let mut dict = StateDict::new();
        put_scaler(&mut dict, "scaler", &sc);
        let back = get_scaler(&dict, "scaler").unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn index_rejects_non_integers() {
        assert_eq!(index(3.0, "x").unwrap(), 3);
        assert!(index(3.5, "x").is_err());
        assert!(index(-1.0, "x").is_err());
        assert!(index(f64::NAN, "x").is_err());
    }

    #[test]
    fn params_roundtrip_via_prefix() {
        let mut store = ParamStore::new();
        store.add("a.w", Tensor::full(2, 2, 5.0));
        let mut dict = StateDict::new();
        put_params(&mut dict, &store);
        assert!(dict.contains("param.a.w"));

        let mut other = ParamStore::new();
        let id = other.add("a.w", Tensor::zeros(2, 2));
        get_params(&mut other, &dict).unwrap();
        assert_eq!(other.value(id).data(), &[5.0; 4]);

        let mut wrong = ParamStore::new();
        wrong.add("a.w", Tensor::zeros(3, 2));
        assert!(get_params(&mut wrong, &dict).is_err());
    }
}
