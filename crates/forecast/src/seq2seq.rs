//! Shared encoder-decoder sequence model underlying the Transformer and
//! Informer forecasters.
//!
//! Architecture (training builds one graph per window; inference stacks
//! up to eight windows per graph, and every layer, attention included,
//! keeps each window's rows independent of the others):
//!
//! * scalar embedding `Dense(1 → d_model)` + sinusoidal positional encoding;
//! * `enc_layers` × (self-attention → add&norm → FFN → add&norm), where the
//!   self-attention is full for Transformer and ProbSparse for Informer;
//! * a *generative* decoder (Informer §4.2, also used for the vanilla
//!   Transformer here): the decoder input is the last `label_len` observed
//!   values concatenated with zero placeholders for the horizon, processed
//!   in ONE forward pass — causal self-attention, cross-attention to the
//!   encoder output, FFN — then projected to scalars; the horizon tail is
//!   the forecast.
//!
//! Omitted vs. the full Informer: the convolutional distilling stage
//! between encoder layers (a constant-factor memory optimization that does
//! not change which queries attend), documented in DESIGN.md.

use neural::attention::{positional_encoding, AttentionKind, MultiHeadAttention};
use neural::graph::{Graph, NodeId, ParamStore};
use neural::layers::{Activation, Dense, Dropout, LayerNorm};
use neural::tensor::Tensor;
use neural::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tsdata::scaler::StandardScaler;
use tsdata::series::MultiSeries;

use crate::batch::{inverse_rows, scale_rows};
use crate::deep::{make_batches, prepare, Batch, BatchSpec};
use crate::model::{validate_batch, validate_window, ForecastError, Forecaster};
use crate::stateio;

/// Configuration shared by Transformer and Informer.
#[derive(Debug, Clone)]
pub(crate) struct Seq2SeqConfig {
    /// Input window length `k`.
    pub input_len: usize,
    /// Forecast horizon `h`.
    pub horizon: usize,
    /// Decoder warm-start ("label") length.
    pub label_len: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub enc_layers: usize,
    /// Decoder layers.
    pub dec_layers: usize,
    /// Feed-forward hidden width.
    pub ffn: usize,
    /// Dropout probability.
    pub dropout: f64,
    /// Encoder self-attention kind (full ⇒ Transformer, sparse ⇒ Informer).
    pub encoder_attention: AttentionKind,
    /// Batching limits.
    pub batches: BatchSpec,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Seq2SeqConfig {
    /// Vanilla Transformer preset.
    pub(crate) fn transformer() -> Self {
        Seq2SeqConfig {
            input_len: 96,
            horizon: 24,
            label_len: 24,
            d_model: 16,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            ffn: 32,
            dropout: 0.05,
            encoder_attention: AttentionKind::Full,
            batches: BatchSpec { stride: 8, batch_size: 8, max_windows: 400 },
            train: TrainConfig { max_epochs: 15, ..Default::default() },
        }
    }

    /// Informer preset: ProbSparse encoder self-attention (factor 5).
    pub(crate) fn informer() -> Self {
        Seq2SeqConfig {
            encoder_attention: AttentionKind::ProbSparse { factor: 5 },
            ..Self::transformer()
        }
    }
}

struct EncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ff1: Dense,
    ff2: Dense,
}

struct DecoderLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
    ff1: Dense,
    ff2: Dense,
}

struct Net {
    embed: Dense,
    dec_embed: Dense,
    encoder: Vec<EncoderLayer>,
    decoder: Vec<DecoderLayer>,
    proj: Dense,
    /// Positional encodings of the encoder input (`[input_len, d_model]`)
    /// and the decoder input (`[label_len + horizon, d_model]`), built
    /// once per model rather than once per sample.
    pe_enc: Tensor,
    pe_dec: Tensor,
}

#[allow(clippy::too_many_arguments)]
fn ffn_block(
    g: &mut Graph,
    store: &ParamStore,
    ff1: &Dense,
    ff2: &Dense,
    x: NodeId,
    dropout: &Dropout,
    training: bool,
    rng: &mut StdRng,
) -> NodeId {
    let h = ff1.forward(g, store, x);
    let h = dropout.forward(g, h, training, rng);
    ff2.forward(g, store, h)
}

/// `n` copies of `t` stacked row-wise: a positional encoding for `n`
/// stacked sequences.
fn tile_rows(t: &Tensor, n: usize) -> Tensor {
    Tensor::new(n * t.rows(), t.cols(), t.data().repeat(n))
}

/// The generic encoder-decoder forecaster. Instantiated via
/// [`crate::transformer::transformer`] and [`crate::informer::informer`].
pub(crate) struct Seq2Seq {
    name: &'static str,
    config: Seq2SeqConfig,
    store: ParamStore,
    net: Option<Net>,
    scaler: Option<StandardScaler>,
}

impl Seq2Seq {
    /// Creates an unfitted model with the given display name.
    pub(crate) fn new(name: &'static str, config: Seq2SeqConfig) -> Self {
        assert!(config.label_len <= config.input_len, "label_len exceeds input_len");
        Seq2Seq { name, config, store: ParamStore::new(), net: None, scaler: None }
    }

    /// The configuration in use.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &Seq2SeqConfig {
        &self.config
    }

    fn build_net(&self, store: &mut ParamStore, rng: &mut StdRng) -> Net {
        let c = &self.config;
        let embed = Dense::new(store, "embed", 1, c.d_model, Activation::Identity, rng);
        let dec_embed = Dense::new(store, "dec_embed", 1, c.d_model, Activation::Identity, rng);
        let encoder = (0..c.enc_layers)
            .map(|l| EncoderLayer {
                attn: MultiHeadAttention::new(
                    store,
                    &format!("enc{l}.attn"),
                    c.d_model,
                    c.heads,
                    rng,
                ),
                ln1: LayerNorm::new(store, &format!("enc{l}.ln1"), c.d_model),
                ln2: LayerNorm::new(store, &format!("enc{l}.ln2"), c.d_model),
                ff1: Dense::new(
                    store,
                    &format!("enc{l}.ff1"),
                    c.d_model,
                    c.ffn,
                    Activation::Relu,
                    rng,
                ),
                ff2: Dense::new(
                    store,
                    &format!("enc{l}.ff2"),
                    c.ffn,
                    c.d_model,
                    Activation::Identity,
                    rng,
                ),
            })
            .collect();
        let decoder = (0..c.dec_layers)
            .map(|l| DecoderLayer {
                self_attn: MultiHeadAttention::new(
                    store,
                    &format!("dec{l}.self"),
                    c.d_model,
                    c.heads,
                    rng,
                ),
                cross_attn: MultiHeadAttention::new(
                    store,
                    &format!("dec{l}.cross"),
                    c.d_model,
                    c.heads,
                    rng,
                ),
                ln1: LayerNorm::new(store, &format!("dec{l}.ln1"), c.d_model),
                ln2: LayerNorm::new(store, &format!("dec{l}.ln2"), c.d_model),
                ln3: LayerNorm::new(store, &format!("dec{l}.ln3"), c.d_model),
                ff1: Dense::new(
                    store,
                    &format!("dec{l}.ff1"),
                    c.d_model,
                    c.ffn,
                    Activation::Relu,
                    rng,
                ),
                ff2: Dense::new(
                    store,
                    &format!("dec{l}.ff2"),
                    c.ffn,
                    c.d_model,
                    Activation::Identity,
                    rng,
                ),
            })
            .collect();
        let proj = Dense::new(store, "proj", c.d_model, 1, Activation::Identity, rng);
        let pe_enc = positional_encoding(c.input_len, c.d_model);
        let pe_dec = positional_encoding(c.label_len + c.horizon, c.d_model);
        Net { embed, dec_embed, encoder, decoder, proj, pe_enc, pe_dec }
    }

    /// Forward pass for ONE sample window (scaled); returns `[1, horizon]`.
    fn forward_sample(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        net: &Net,
        window: &[f64],
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let c = &self.config;
        let dropout = Dropout::new(c.dropout);
        // --- Encoder ---
        let x_col = g.input(Tensor::col(window));
        let mut enc = net.embed.forward(g, store, x_col); // [k, d]
        let pe = g.input(net.pe_enc.clone());
        enc = g.add(enc, pe);
        for layer in &net.encoder {
            let attn = layer.attn.forward(g, store, enc, enc, enc, c.encoder_attention, false, 1);
            let attn = dropout.forward(g, attn, training, rng);
            let sum = g.add(enc, attn);
            let normed = layer.ln1.forward(g, store, sum);
            let ff = ffn_block(g, store, &layer.ff1, &layer.ff2, normed, &dropout, training, rng);
            let sum2 = g.add(normed, ff);
            enc = layer.ln2.forward(g, store, sum2);
        }
        // --- Decoder (generative one-pass) ---
        let mut dec_in: Vec<f64> = window[window.len() - c.label_len..].to_vec();
        dec_in.extend(std::iter::repeat_n(0.0, c.horizon));
        let d_col = g.input(Tensor::col(&dec_in));
        let mut dec = net.dec_embed.forward(g, store, d_col);
        let pe_d = g.input(net.pe_dec.clone());
        dec = g.add(dec, pe_d);
        for layer in &net.decoder {
            let sa = layer.self_attn.forward(g, store, dec, dec, dec, AttentionKind::Full, true, 1);
            let sa = dropout.forward(g, sa, training, rng);
            let sum = g.add(dec, sa);
            let normed = layer.ln1.forward(g, store, sum);
            let ca =
                layer.cross_attn.forward(g, store, normed, enc, enc, AttentionKind::Full, false, 1);
            let ca = dropout.forward(g, ca, training, rng);
            let sum2 = g.add(normed, ca);
            let normed2 = layer.ln2.forward(g, store, sum2);
            let ff = ffn_block(g, store, &layer.ff1, &layer.ff2, normed2, &dropout, training, rng);
            let sum3 = g.add(normed2, ff);
            dec = layer.ln3.forward(g, store, sum3);
        }
        let scalars = net.proj.forward(g, store, dec); // [label+h, 1]
        let tail = g.slice_rows(scalars, c.label_len, c.label_len + c.horizon);
        g.transpose(tail) // [1, h]
    }

    /// Stacked inference forward for `n` scaled windows `x [n, k]`,
    /// returning the `[n·(label_len+horizon), 1]` projection stack (the
    /// caller gathers each sample's horizon tail).
    ///
    /// Embeddings, feed-forward blocks, layer norms and the final
    /// projection all run on `[n*L, d_model]` stacks (one matmul each);
    /// attention stacks its Q/K/V projections and computes per-sample
    /// score blocks inside [`MultiHeadAttention::forward`]. Dropout is an
    /// identity at inference, so skipping it here keeps every row bitwise
    /// equal to [`Self::forward_sample`].
    fn forward_stacked_eval(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        net: &Net,
        x: &Tensor,
    ) -> NodeId {
        let c = &self.config;
        let (n, k) = x.shape();
        // --- Encoder ---
        // Row-major [n, k] flattens to the n windows back to back, which
        // is exactly the stacked [n*k, 1] scalar-embedding input.
        let x_col = g.input(Tensor::col(x.data()));
        let mut enc = net.embed.forward(g, store, x_col); // [n*k, d]
        let pe = g.input(tile_rows(&net.pe_enc, n));
        enc = g.add(enc, pe);
        for layer in &net.encoder {
            let attn = layer.attn.forward(g, store, enc, enc, enc, c.encoder_attention, false, n);
            let sum = g.add(enc, attn);
            let normed = layer.ln1.forward(g, store, sum);
            let h = layer.ff1.forward(g, store, normed);
            let ff = layer.ff2.forward(g, store, h);
            let sum2 = g.add(normed, ff);
            enc = layer.ln2.forward(g, store, sum2);
        }
        // --- Decoder (generative one-pass) ---
        let ld = c.label_len + c.horizon;
        let mut dec_data = Vec::with_capacity(n * ld);
        for r in 0..n {
            dec_data.extend_from_slice(&x.data()[r * k + (k - c.label_len)..(r + 1) * k]);
            dec_data.extend(std::iter::repeat_n(0.0, c.horizon));
        }
        let d_col = g.input(Tensor::col(&dec_data));
        let mut dec = net.dec_embed.forward(g, store, d_col);
        let pe_d = g.input(tile_rows(&net.pe_dec, n));
        dec = g.add(dec, pe_d);
        for layer in &net.decoder {
            let sa = layer.self_attn.forward(g, store, dec, dec, dec, AttentionKind::Full, true, n);
            let sum = g.add(dec, sa);
            let normed = layer.ln1.forward(g, store, sum);
            let ca =
                layer.cross_attn.forward(g, store, normed, enc, enc, AttentionKind::Full, false, n);
            let sum2 = g.add(normed, ca);
            let normed2 = layer.ln2.forward(g, store, sum2);
            let h = layer.ff1.forward(g, store, normed2);
            let ff = layer.ff2.forward(g, store, h);
            let sum3 = g.add(normed2, ff);
            dec = layer.ln3.forward(g, store, sum3);
        }
        net.proj.forward(g, store, dec) // [n*ld, 1]; horizon tails gathered by the caller
    }

    /// Batch forward: stacks per-sample predictions into `[n, horizon]`.
    fn forward_batch(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        net: &Net,
        batch: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> NodeId {
        let (n, k) = batch.x.shape();
        let mut preds: Option<NodeId> = None;
        for r in 0..n {
            let window = &batch.x.data()[r * k..(r + 1) * k];
            let p = self.forward_sample(g, store, net, window, training, rng);
            preds = Some(match preds {
                None => p,
                Some(acc) => g.vstack(acc, p),
            });
        }
        preds.expect("non-empty batch")
    }
}

impl Forecaster for Seq2Seq {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_len(&self) -> usize {
        self.config.input_len
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn fit(&mut self, train_data: &MultiSeries, val: &MultiSeries) -> Result<(), ForecastError> {
        let scaler = prepare(train_data, self.config.input_len, self.config.horizon)?;
        let train_b = make_batches(
            train_data,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );
        if train_b.is_empty() {
            return Err(ForecastError::TooShort {
                needed: self.config.input_len + self.config.horizon,
                got: train_data.len(),
            });
        }
        let val_b = make_batches(
            val,
            &scaler,
            self.config.input_len,
            self.config.horizon,
            self.config.batches,
        );
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut store = ParamStore::new();
        let net = self.build_net(&mut store, &mut rng);

        let this = &*self;
        train(
            &mut store,
            this.config.train,
            train_b.len(),
            val_b.len(),
            |g, s, b, training, rng| {
                let batch = if training { &train_b[b] } else { &val_b[b] };
                let pred = this.forward_batch(g, s, &net, batch, training, rng);
                g.mse(pred, &batch.y)
            },
        );

        self.store = store;
        self.net = Some(net);
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let (Some(net), Some(scaler)) = (&self.net, &self.scaler) else {
            return Err(ForecastError::NotFitted);
        };
        validate_window(inputs, self.config.input_len)?;
        let x = scaler.transform(0, &inputs[0]);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let pred = self.forward_sample(&mut g, &self.store, net, &x, false, &mut rng);
        Ok(scaler.inverse(0, g.value(pred).data()))
    }

    fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
        let (Some(net), Some(scaler)) = (&self.net, &self.scaler) else {
            return Err(ForecastError::NotFitted);
        };
        validate_batch(windows, self.config.input_len)?;
        if windows.rows() == 0 {
            return Ok(Tensor::zeros(0, self.config.horizon));
        }
        let x = scale_rows(windows, scaler);
        let (n, k) = x.shape();
        let h = self.config.horizon;
        let ld = self.config.label_len + h;
        let mut pred = Tensor::zeros(n, h);
        // Sub-batches keep every stacked tensor (scores are the widest, at
        // [chunk·L, L]) inside L2; one flat 64-window stack measures ~2x
        // slower than chunks of 8 on a 2 MiB-L2 host because each graph op
        // materializes its output and the working set spills. Chunking is
        // row-local, so the split cannot change any output bit.
        const CHUNK: usize = 8;
        for start in (0..n).step_by(CHUNK) {
            let rows = CHUNK.min(n - start);
            let xc = Tensor::new(rows, k, x.data()[start * k..(start + rows) * k].to_vec());
            let mut g = Graph::new();
            let scalars = self.forward_stacked_eval(&mut g, &self.store, net, &xc);
            // Gather each sample's horizon tail from the [rows*ld, 1]
            // projection stack directly — no per-sample graph nodes.
            let stacked = g.value(scalars).data();
            for r in 0..rows {
                pred.data_mut()[(start + r) * h..(start + r + 1) * h]
                    .copy_from_slice(&stacked[r * ld + self.config.label_len..(r + 1) * ld]);
            }
        }
        Ok(inverse_rows(&pred, scaler))
    }

    fn save_state(&self) -> Result<neural::state::StateDict, ForecastError> {
        if self.net.is_none() {
            return Err(ForecastError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(ForecastError::NotFitted)?;
        let mut dict = neural::state::StateDict::new();
        // Tagging with the display name keeps a Transformer snapshot from
        // loading into an Informer even though the two share this struct.
        stateio::put_tag(&mut dict, self.name());
        stateio::put_scaler(&mut dict, "scaler", scaler);
        stateio::put_params(&mut dict, &self.store);
        Ok(dict)
    }

    fn load_state(&mut self, state: &neural::state::StateDict) -> Result<(), ForecastError> {
        stateio::check_tag(state, self.name())?;
        let scaler = stateio::get_scaler(state, "scaler")?;
        let mut rng = StdRng::seed_from_u64(self.config.train.seed);
        let mut store = ParamStore::new();
        let net = self.build_net(&mut store, &mut rng);
        stateio::check_len(state, store.len() + 3)?;
        stateio::get_params(&mut store, state)?;
        self.store = store;
        self.net = Some(net);
        self.scaler = Some(scaler);
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

    fn tiny_config() -> Seq2SeqConfig {
        Seq2SeqConfig {
            input_len: 16,
            horizon: 4,
            label_len: 8,
            d_model: 8,
            heads: 2,
            enc_layers: 1,
            dec_layers: 1,
            ffn: 16,
            dropout: 0.0,
            encoder_attention: AttentionKind::Full,
            batches: BatchSpec { stride: 4, batch_size: 8, max_windows: 120 },
            train: TrainConfig { max_epochs: 20, ..Default::default() },
        }
    }

    #[test]
    fn transformer_learns_seasonal_series() {
        let n = 700;
        let data: Vec<f64> =
            (0..n).map(|i| (i as f64 / 8.0 * std::f64::consts::TAU).sin()).collect();
        let (tr, rest) = data.split_at(500);
        let (va, te) = rest.split_at(100);
        let mut model = Seq2Seq::new("Transformer", tiny_config());
        model.fit(&uni(tr.to_vec()), &uni(va.to_vec())).unwrap();
        let pred = model.predict(&[te[..16].to_vec()]).unwrap();
        let rmse = tsdata::metrics::rmse(&te[16..20], &pred);
        assert!(rmse < 0.6, "rmse {rmse}");
    }

    #[test]
    fn informer_variant_runs() {
        let n = 500;
        let data: Vec<f64> =
            (0..n).map(|i| (i as f64 / 10.0 * std::f64::consts::TAU).cos() * 2.0).collect();
        let (tr, rest) = data.split_at(350);
        let (va, te) = rest.split_at(75);
        let mut model = Seq2Seq::new(
            "Informer",
            Seq2SeqConfig {
                encoder_attention: AttentionKind::ProbSparse { factor: 1 },
                train: TrainConfig { max_epochs: 5, ..Default::default() },
                ..tiny_config()
            },
        );
        model.fit(&uni(tr.to_vec()), &uni(va.to_vec())).unwrap();
        let pred = model.predict(&[te[..16].to_vec()]).unwrap();
        assert_eq!(pred.len(), 4);
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = Seq2Seq::new("Transformer", tiny_config());
        assert_eq!(m.predict(&[vec![0.0; 16]]).unwrap_err(), ForecastError::NotFitted);
    }

    #[test]
    fn stacked_eval_matches_per_sample_forward_bitwise() {
        // Both attention kinds: Full (Transformer) and ProbSparse with a
        // factor small enough that the sparse path actually triggers.
        for kind in [AttentionKind::Full, AttentionKind::ProbSparse { factor: 1 }] {
            let data: Vec<f64> = (0..400)
                .map(|i| (i as f64 / 9.0 * std::f64::consts::TAU).sin() + (i % 5) as f64 * 0.1)
                .collect();
            let mut m = Seq2Seq::new(
                "Transformer",
                Seq2SeqConfig {
                    encoder_attention: kind,
                    train: TrainConfig { max_epochs: 2, ..Default::default() },
                    ..tiny_config()
                },
            );
            m.fit(&uni(data[..300].to_vec()), &uni(data[300..380].to_vec())).unwrap();
            let windows: Vec<Vec<f64>> =
                (0..5).map(|i| data[300 + i * 3..300 + i * 3 + 16].to_vec()).collect();
            let mut staged = Tensor::zeros(5, 16);
            for (r, w) in windows.iter().enumerate() {
                staged.data_mut()[r * 16..(r + 1) * 16].copy_from_slice(w);
            }
            let batched = m.predict_batch(&staged).unwrap();
            assert_eq!(batched.shape(), (5, 4));
            for (r, w) in windows.iter().enumerate() {
                let single = m.predict(std::slice::from_ref(w)).unwrap();
                assert_eq!(
                    &batched.data()[r * 4..(r + 1) * 4],
                    single.as_slice(),
                    "window {r} diverged under {kind:?}"
                );
            }
        }
    }

    #[test]
    fn non_finite_window_poisons_only_its_own_row() {
        // The Informer preset's ProbSparse factor (5) leaves 2 of 16
        // queries lazy here, so its query selection sees the bad window.
        let data: Vec<f64> = (0..400)
            .map(|i| (i as f64 / 7.0 * std::f64::consts::TAU).sin() + 0.02 * i as f64)
            .collect();
        for (name, kind) in [
            ("Informer", AttentionKind::ProbSparse { factor: 5 }),
            ("Transformer", AttentionKind::Full),
        ] {
            let mut m = Seq2Seq::new(
                name,
                Seq2SeqConfig {
                    encoder_attention: kind,
                    train: TrainConfig { max_epochs: 2, ..Default::default() },
                    ..tiny_config()
                },
            );
            m.fit(&uni(data[..300].to_vec()), &uni(data[300..380].to_vec())).unwrap();
            for bad in [f64::NAN, f64::INFINITY] {
                let mut windows: Vec<Vec<f64>> =
                    (0..4).map(|i| data[300 + i * 5..316 + i * 5].to_vec()).collect();
                windows[2][7] = bad;
                let mut staged = Tensor::zeros(4, 16);
                for (r, w) in windows.iter().enumerate() {
                    staged.data_mut()[r * 16..(r + 1) * 16].copy_from_slice(w);
                }
                let batched = m.predict_batch(&staged).unwrap();
                for (r, w) in windows.iter().enumerate() {
                    let row = &batched.data()[r * 4..(r + 1) * 4];
                    let single = m.predict(std::slice::from_ref(w)).unwrap();
                    if r == 2 {
                        assert!(
                            row.iter().chain(&single).all(|v| v.is_nan()),
                            "{name}/{bad}: {row:?}"
                        );
                    } else {
                        assert!(row.iter().all(|v| v.is_finite()), "{name}/{bad}: row {r} {row:?}");
                        assert_eq!(row, single.as_slice(), "{name}/{bad}: window {r} diverged");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "label_len")]
    fn label_longer_than_input_rejected() {
        Seq2Seq::new("x", Seq2SeqConfig { label_len: 99, ..tiny_config() });
    }
}
