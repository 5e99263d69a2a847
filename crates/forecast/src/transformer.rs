//! The vanilla encoder-decoder Transformer forecaster (Vaswani et al. 2017;
//! the paper uses Darts' Transformer, §3.4). A thin instantiation of
//! [`crate::seq2seq::Seq2Seq`] with full attention.

use crate::seq2seq::{Seq2Seq, Seq2SeqConfig};

/// Builds the Transformer forecaster.
pub(crate) fn transformer(config: Seq2SeqConfig) -> Seq2Seq {
    Seq2Seq::new("Transformer", config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Forecaster;
    use neural::attention::AttentionKind;

    #[test]
    fn name_and_defaults() {
        let m = transformer(Seq2SeqConfig::transformer());
        assert_eq!(m.name(), "Transformer");
        assert_eq!(m.input_len(), 96);
        assert_eq!(m.horizon(), 24);
        assert_eq!(m.config().encoder_attention, AttentionKind::Full);
    }
}
