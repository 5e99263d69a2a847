//! Flat, named snapshots of model parameters.
//!
//! A [`StateDict`] is an ordered map from parameter names to [`Tensor`]
//! values: the interchange format between fitted models and the artifact
//! store in `evalcore`. Models write their parameters under the names
//! they registered with the [`ParamStore`](crate::graph::ParamStore)
//! (`"enc.wxz"`, `"head.b"`, ...).

use std::collections::HashMap;

use crate::tensor::Tensor;

/// An ordered collection of named tensors.
///
/// Insertion order is preserved so that encoding a dict is deterministic:
/// the same model state always serializes to the same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    entries: Vec<(String, Tensor)>,
    index: HashMap<String, usize>,
}

impl StateDict {
    /// Creates an empty dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Adds an entry.
    ///
    /// # Panics
    /// Panics if `name` is already present — duplicate names in a snapshot
    /// are a programming error, not a recoverable condition. Decoders that
    /// read untrusted bytes must check [`StateDict::contains`] first.
    pub fn insert(&mut self, name: &str, value: Tensor) {
        assert!(!self.contains(name), "duplicate state entry `{name}`");
        self.index.insert(name.to_string(), self.entries.len());
        self.entries.push((name.to_string(), value));
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip_preserves_order() {
        let mut dict = StateDict::new();
        dict.insert("b", Tensor::zeros(1, 2));
        dict.insert("a", Tensor::zeros(2, 3));
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.get("a").unwrap().shape(), (2, 3));
        assert!(dict.get("c").is_none());
        let order: Vec<&str> = dict.entries().map(|(n, _)| n).collect();
        assert_eq!(order, ["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "duplicate state entry")]
    fn duplicate_insert_panics() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::zeros(1, 1));
        dict.insert("w", Tensor::zeros(1, 1));
    }
}
