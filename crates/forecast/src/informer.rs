//! Informer (Zhou et al., AAAI 2021): a Transformer with ProbSparse
//! self-attention in the encoder and a generative one-pass decoder. A thin
//! instantiation of [`crate::seq2seq::Seq2Seq`]; the sparse query selection
//! lives in `neural::attention`.

use crate::seq2seq::{Seq2Seq, Seq2SeqConfig};

/// Builds the Informer forecaster.
pub(crate) fn informer(config: Seq2SeqConfig) -> Seq2Seq {
    Seq2Seq::new("Informer", config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Forecaster;
    use neural::attention::AttentionKind;

    #[test]
    fn name_and_sparse_attention() {
        let m = informer(Seq2SeqConfig::informer());
        assert_eq!(m.name(), "Informer");
        assert!(matches!(m.config().encoder_attention, AttentionKind::ProbSparse { factor: 5 }));
    }
}
