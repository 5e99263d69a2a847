//! SZ-style error-bounded lossy compression (Liang et al., Big Data 2018;
//! the paper uses SZ 2.1 via Libpressio).
//!
//! The pipeline mirrors SZ's stages (paper §3.2):
//!
//! 1. **Pointwise relative bound via log transform.** SZ 2.1's pointwise
//!    relative mode compresses `t = ln|v|` with the *absolute* bound
//!    `δ = ln(1 + ε)`; then `v̂ = sign · exp(t̂)` satisfies
//!    `|v̂ - v| ≤ ε·|v|`. Exact zeros and signs are kept in bitmaps.
//! 2. **Block split.** The (nonzero) log values are cut into fixed blocks.
//! 3. **Best-fit predictor per block** among classic Lorenzo (previous
//!    reconstructed value), mean-integrated Lorenzo (block mean) and linear
//!    regression, chosen by estimated coding cost. Each code's cost,
//!    `2·log2(|m|+2) + 1` bits, comes from a table built from that
//!    expression, so every sum keeps its bits. The candidates run in that
//!    order into two reused buffers, and a later one wins only if strictly
//!    cheaper. A candidate stops as soon as its running cost reaches the
//!    best so far: every term is ≥ 1 and adding positive floats never
//!    lowers a sum, so it could not have won (exact, not a heuristic).
//! 4. **Linear-scale quantization** of prediction residuals into
//!    `2·RADIUS + 1` bins of width `2δ`; out-of-range points are stored
//!    verbatim ("unpredictable", as in SZ).
//! 5. **Entropy coding** of the quantization codes with canonical Huffman.
//! 6. A final DEFLATE pass (SZ applies gzip last).
//!
//! The quantization step is what makes SZ's output look piecewise-constant
//! with short-interval fluctuations (paper Figure 1), and this
//! implementation reproduces that texture.

use std::sync::OnceLock;

use tsdata::series::RegularTimeSeries;

use crate::bitstream::{BitReader, BitWriter};
use crate::block::{self, Bitset};
use crate::codec::{check_epsilon, CodecError, CompressedSeries, PeblcCompressor};
use crate::deflate;
use crate::huffman::CanonicalCode;
use crate::reader::ByteReader;
use crate::timestamps;

/// Quantization radius: codes lie in `[-RADIUS, RADIUS]`.
const RADIUS: i64 = 512;
/// Alphabet: shifted codes plus one escape symbol for unpredictable points.
const ALPHABET: usize = (2 * RADIUS + 1) as usize + 1;
const ESCAPE: usize = ALPHABET - 1;
/// SZ's default 1-D block size.
const BLOCK_SIZE: usize = 128;

/// Wire modes, selected by the byte after the value count. Mode 0 stores
/// raw values (ε = 0), mode 1 is the legacy Huffman-per-symbol format
/// (still decoded, no longer written by [`Sz::compress`]), mode 2 packs
/// zigzagged quantization codes through [`crate::block`]'s lanes and
/// stores bitmaps in the word-backed LSB-first layout (DESIGN.md §11).
const MODE_RAW: u8 = 0;
const MODE_HUFFMAN: u8 = 1;
const MODE_BLOCKED: u8 = 2;

/// Escape marker in the blocked symbol stream: zigzagged codes occupy
/// `0..=2·RADIUS`, so the next value is free.
const BLOCKED_ESCAPE: u64 = 2 * RADIUS as u64 + 1;

/// The SZ compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sz;

/// Per-block predictor, as selected by SZ's best-fit stage.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Predictor {
    /// Classic Lorenzo: previous reconstructed value.
    Lorenzo,
    /// Mean-integrated Lorenzo: the block mean.
    Mean(f64),
    /// Linear regression within the block: `a + b·i`.
    Linear { a: f64, b: f64 },
}

impl Predictor {
    fn tag(&self) -> u8 {
        match self {
            Predictor::Lorenzo => 0,
            Predictor::Mean(_) => 1,
            Predictor::Linear { .. } => 2,
        }
    }

    /// Coefficient storage, counted toward the block's cost (Lorenzo is
    /// free).
    fn coeff_bits(&self) -> f64 {
        match self {
            Predictor::Lorenzo => 0.0,
            Predictor::Mean(_) => 64.0,
            Predictor::Linear { .. } => 128.0,
        }
    }
}

/// Estimated coding cost in bits of quantization code `m`, indexed by
/// `|m|`: `2·log2(|m|+2) + 1` models the Huffman length of a centered code.
fn code_costs() -> &'static [f64; RADIUS as usize + 1] {
    static TABLE: OnceLock<[f64; RADIUS as usize + 1]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|m| 2.0 * ((m + 2) as f64).log2() + 1.0))
}

/// Estimated cost of an unpredictable point: escape symbol plus raw f64.
const ESCAPE_COST: f64 = 72.0;

/// One candidate predictor's quantization of a block: codes (`None` =
/// unpredictable, stored verbatim) and reconstructed values.
#[derive(Debug, Default)]
struct Quantized {
    codes: Vec<Option<i64>>,
    recon: Vec<f64>,
}

impl Quantized {
    /// Quantizes `block` under `pred` into `self` and returns the estimated
    /// cost in bits (codes, then coefficients), or `None` as soon as the
    /// running cost reaches `best` — the candidate can no longer win.
    fn quantize(
        &mut self,
        block: &[f64],
        pred: Predictor,
        prev_recon: Option<f64>,
        delta: f64,
        best: f64,
    ) -> Option<f64> {
        let costs = code_costs();
        let coeff_bits = pred.coeff_bits();
        self.codes.resize(block.len(), None);
        self.recon.resize(block.len(), 0.0);
        let mut bits = 0.0;
        let mut last = prev_recon.unwrap_or(0.0);
        for (i, ((&t, code_out), recon_out)) in
            block.iter().zip(&mut self.codes).zip(&mut self.recon).enumerate()
        {
            let p = match pred {
                Predictor::Lorenzo => last,
                Predictor::Mean(m) => m,
                Predictor::Linear { a, b } => a + b * i as f64,
            };
            let (code, r) = quantize_point(t, p, delta);
            bits += code.map_or(ESCAPE_COST, |m| costs[m.unsigned_abs() as usize]);
            if bits + coeff_bits >= best {
                return None;
            }
            (*code_out, *recon_out, last) = (code, r, r);
        }
        Some(bits + coeff_bits)
    }
}

/// Quantizes `t` against prediction `p`: the code (`None` = unpredictable)
/// and the reconstructed value.
fn quantize_point(t: f64, p: f64, delta: f64) -> (Option<i64>, f64) {
    // Range-check before casting: a non-finite quotient (NaN/±inf values
    // from a hostile decode) saturates `as i64` to i64::MIN, whose .abs()
    // overflows.
    let q = ((t - p) / (2.0 * delta)).round();
    if q.is_finite() && q.abs() <= RADIUS as f64 {
        let m = q as i64;
        let r = p + 2.0 * delta * m as f64;
        // Guard against pathological float cancellation: if the
        // reconstruction drifted past the bound, store verbatim.
        if (r - t).abs() <= delta {
            return (Some(m), r);
        }
    }
    (None, t)
}

fn fit_linear(block: &[f64]) -> (f64, f64) {
    let n = block.len() as f64;
    if block.len() < 2 {
        return (block.first().copied().unwrap_or(0.0), 0.0);
    }
    let mean_i = (n - 1.0) / 2.0;
    let mean_t: f64 = block.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &t) in block.iter().enumerate() {
        let di = i as f64 - mean_i;
        num += di * (t - mean_t);
        den += di * di;
    }
    let b = if den == 0.0 { 0.0 } else { num / den };
    (mean_t - b * mean_i, b)
}

/// Chooses the cheapest predictor for a block (SZ's best-fit selection,
/// stage 3 in the module doc) and leaves its quantization in `best`;
/// `spare` is the other candidate buffer. Ties keep the earlier
/// predictor.
fn select_predictor(
    block: &[f64],
    prev_recon: Option<f64>,
    delta: f64,
    best: &mut Quantized,
    spare: &mut Quantized,
) -> Predictor {
    let mean = block.iter().sum::<f64>() / block.len() as f64;
    let (a, b) = fit_linear(block);
    let mut best_cost = f64::INFINITY;
    let mut best_pred = Predictor::Lorenzo;
    for pred in [Predictor::Lorenzo, Predictor::Mean(mean), Predictor::Linear { a, b }] {
        if let Some(c) = spare.quantize(block, pred, prev_recon, delta, best_cost) {
            best_cost = c;
            best_pred = pred;
            std::mem::swap(best, spare);
        }
    }
    best_pred
}

fn read_bitmap(r: &mut ByteReader<'_>, n: usize, mode: u8) -> Result<Bitset, CodecError> {
    let buf = r
        .read_bytes(n.div_ceil(8))
        .map_err(|_| CodecError::Corrupt(format!("{n}-point bitmap truncated")))?;
    let set = if mode == MODE_HUFFMAN {
        Bitset::from_msb_bytes(buf, n)
    } else {
        Bitset::from_le_bytes(buf, n)
    };
    set.map_err(|e| CodecError::Corrupt(e.to_string()))
}

/// Encodes `series` with the legacy mode-1 wire format (Huffman-coded
/// symbols, MSB-first bitmaps). [`Sz::compress`] no longer writes this
/// format, but old frames must stay decodable, so this writer is kept to
/// feed the roundtrip tests and the fuzz corpus that prove it.
pub fn compress_huffman(
    series: &RegularTimeSeries,
    epsilon: f64,
) -> Result<CompressedSeries, CodecError> {
    compress_impl(series, epsilon, MODE_HUFFMAN)
}

fn compress_impl(
    series: &RegularTimeSeries,
    epsilon: f64,
    mode: u8,
) -> Result<CompressedSeries, CodecError> {
    check_epsilon(epsilon)?;
    let values = series.values();
    let n = values.len();
    let mut inner = timestamps::try_encode_header(series.start(), series.interval())?;
    inner.extend_from_slice(&(n as u32).to_le_bytes());

    if epsilon == 0.0 {
        // Lossless fallback mode.
        inner.push(MODE_RAW);
        inner.reserve(n * 8);
        for &v in values {
            inner.extend_from_slice(&v.to_le_bytes());
        }
        let bytes = deflate::compress(&inner);
        let num_segments = constant_runs(values);
        return Ok(CompressedSeries { method: "SZ", bytes, num_segments });
    }
    inner.push(mode);
    inner.extend_from_slice(&epsilon.to_le_bytes());

    let mut zero = Bitset::with_len(n);
    let mut sign = Bitset::with_len(n);
    for (i, &v) in values.iter().enumerate() {
        if v == 0.0 {
            zero.set(i);
        }
        if v < 0.0 {
            sign.set(i);
        }
    }
    if mode == MODE_HUFFMAN {
        // Byte-identical to the historical BitWriter-backed bitmaps.
        inner.extend_from_slice(&zero.to_msb_bytes());
        inner.extend_from_slice(&sign.to_msb_bytes());
    } else {
        inner.extend_from_slice(&zero.to_le_bytes());
        inner.extend_from_slice(&sign.to_le_bytes());
    }

    let logs: Vec<f64> = values.iter().filter(|&&v| v != 0.0).map(|&v| v.abs().ln()).collect();
    let delta = (1.0 + epsilon).ln();

    // Encode blocks.
    let mut block_meta: Vec<u8> = Vec::new();
    let mut all_codes: Vec<Option<i64>> = Vec::with_capacity(logs.len());
    let mut unpredictable: Vec<f64> = Vec::new();
    let mut prev_recon: Option<f64> = None;
    let mut recon_logs: Vec<f64> = Vec::with_capacity(logs.len());
    let (mut best, mut spare) = (Quantized::default(), Quantized::default());
    for block in logs.chunks(BLOCK_SIZE) {
        let pred = select_predictor(block, prev_recon, delta, &mut best, &mut spare);
        let Quantized { codes, recon } = &best;
        block_meta.push(pred.tag());
        match pred {
            Predictor::Lorenzo => {}
            Predictor::Mean(m) => block_meta.extend_from_slice(&m.to_le_bytes()),
            Predictor::Linear { a, b } => {
                block_meta.extend_from_slice(&a.to_le_bytes());
                block_meta.extend_from_slice(&b.to_le_bytes());
            }
        }
        for (c, (&t, &r)) in codes.iter().zip(block.iter().zip(recon)) {
            if c.is_none() {
                // Bitwise so a NaN escape (NaN != NaN) doesn't trip it.
                debug_assert_eq!(t.to_bits(), r.to_bits());
                unpredictable.push(t);
            }
        }
        prev_recon = recon.last().copied().or(prev_recon);
        all_codes.extend_from_slice(codes);
        recon_logs.extend_from_slice(recon);
    }

    let num_blocks = logs.len().div_ceil(BLOCK_SIZE);
    inner.extend_from_slice(&(num_blocks as u32).to_le_bytes());
    inner.extend_from_slice(&block_meta);

    if mode == MODE_HUFFMAN {
        // Entropy-code the quantization codes.
        if !all_codes.is_empty() {
            let mut freqs = vec![0u64; ALPHABET];
            for c in &all_codes {
                let sym = c.map_or(ESCAPE, |m| (m + RADIUS) as usize);
                freqs[sym] += 1;
            }
            let code = CanonicalCode::from_freqs(&freqs)
                .map_err(|e| CodecError::Corrupt(format!("huffman build: {e}")))?;
            let mut w = BitWriter::with_capacity(ALPHABET * 4 + all_codes.len() * 12);
            for &l in code.lengths() {
                w.write_bits(l as u64, 4);
            }
            for c in &all_codes {
                let sym = c.map_or(ESCAPE, |m| (m + RADIUS) as usize);
                code.encode(sym, &mut w);
            }
            let payload = w.into_bytes();
            inner.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            inner.extend_from_slice(&payload);
        } else {
            inner.extend_from_slice(&0u32.to_le_bytes());
        }
    } else {
        // Blocked packing: zigzag keeps near-zero quantization codes (the
        // common case after prediction) in narrow lanes; the escape takes
        // the first value past the zigzagged range. Self-delimiting, so no
        // payload-length prefix.
        let syms: Vec<u64> =
            all_codes.iter().map(|c| c.map_or(BLOCKED_ESCAPE, block::zigzag)).collect();
        inner.extend_from_slice(&block::encode_u64s(&syms));
    }

    inner.extend_from_slice(&(unpredictable.len() as u32).to_le_bytes());
    inner.reserve(unpredictable.len() * 8);
    for &u in &unpredictable {
        inner.extend_from_slice(&u.to_le_bytes());
    }

    // Figure-3 segment counting for SZ: runs of constant decompressed
    // values, the "constant line like PMC" texture quantization creates.
    let decompressed = reassemble(n, &zero, &sign, &recon_logs);
    let num_segments = constant_runs(&decompressed);

    Ok(CompressedSeries { method: "SZ", bytes: deflate::compress(&inner), num_segments })
}

impl PeblcCompressor for Sz {
    fn name(&self) -> &'static str {
        "SZ"
    }

    fn compress(
        &self,
        series: &RegularTimeSeries,
        epsilon: f64,
    ) -> Result<CompressedSeries, CodecError> {
        compress_impl(series, epsilon, MODE_BLOCKED)
    }

    fn decompress(&self, compressed: &CompressedSeries) -> Result<RegularTimeSeries, CodecError> {
        let inner = deflate::decompress(&compressed.bytes)?;
        let mut r = ByteReader::new(&inner);
        let (start, interval) = timestamps::read_header(&mut r)?;
        let n = r.read_u32_le()? as usize;
        let mode = r.read_u8()?;
        match mode {
            0 => {
                // Raw values cost 8 bytes each; a tampered count cannot
                // allocate past what the input holds.
                if n > r.bounded_capacity(n, 8) {
                    return Err(CodecError::Corrupt(format!(
                        "raw count {n} exceeds the {} remaining bytes",
                        r.remaining()
                    )));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.read_f64_le()?);
                }
                Ok(RegularTimeSeries::new(start, interval, values)?)
            }
            mode @ (MODE_HUFFMAN | MODE_BLOCKED) => {
                let epsilon = r.read_f64_le()?;
                // An honest encoder only writes bounds that passed
                // `check_epsilon`; anything else poisons every value
                // through `delta`.
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return Err(CodecError::Corrupt(format!("invalid stored epsilon {epsilon}")));
                }
                let delta = (1.0 + epsilon).ln();
                let zero = read_bitmap(&mut r, n, mode)?;
                let sign = read_bitmap(&mut r, n, mode)?;
                let nz = zero.count_zeros();
                let num_blocks = r.read_u32_le()? as usize;
                // The block partition is fully determined by `nz`; any
                // other count desynchronizes every later field.
                if num_blocks != nz.div_ceil(BLOCK_SIZE) {
                    return Err(CodecError::Corrupt(format!(
                        "block count {num_blocks} does not match {nz} nonzero values"
                    )));
                }
                // Block metadata: ≥ 1 byte per block (the predictor tag).
                let mut preds = Vec::with_capacity(r.bounded_capacity(num_blocks, 1));
                for _ in 0..num_blocks {
                    let pred = match r.read_u8()? {
                        0 => Predictor::Lorenzo,
                        1 => Predictor::Mean(r.read_f64_le()?),
                        2 => {
                            let a = r.read_f64_le()?;
                            let b = r.read_f64_le()?;
                            Predictor::Linear { a, b }
                        }
                        t => return Err(CodecError::Corrupt(format!("unknown predictor {t}"))),
                    };
                    preds.push(pred);
                }
                // Quantization symbols, one per nonzero value.
                let symbols = if mode == MODE_HUFFMAN {
                    // Legacy: Huffman-coded behind a payload-length prefix.
                    let paylen = r.read_u32_le()? as usize;
                    let payload = r
                        .read_bytes(paylen)
                        .map_err(|_| CodecError::Corrupt("code stream truncated".into()))?;
                    let mut symbols = Vec::with_capacity(payload.len().min(nz));
                    if paylen > 0 {
                        let mut bits = BitReader::new(payload);
                        let code = CanonicalCode::read_lengths4(&mut bits, ALPHABET)
                            .map_err(|e| CodecError::Corrupt(format!("huffman table: {e}")))?;
                        for _ in 0..nz {
                            let s = code
                                .decode(&mut bits)
                                .map_err(|e| CodecError::Corrupt(format!("code stream: {e}")))?;
                            symbols.push(s);
                        }
                    }
                    symbols
                } else {
                    // Blocked: self-delimiting lane stream of zigzagged
                    // codes; translate to the shared shifted-symbol space.
                    let raw = block::decode_u64s(&mut r)
                        .map_err(|e| CodecError::Corrupt(format!("code stream: {e}")))?;
                    let mut symbols = Vec::with_capacity(raw.len());
                    for &z in &raw {
                        if z == BLOCKED_ESCAPE {
                            symbols.push(ESCAPE);
                        } else if z < BLOCKED_ESCAPE {
                            symbols.push((block::unzigzag(z) + RADIUS) as usize);
                        } else {
                            return Err(CodecError::Corrupt(format!(
                                "quantization code {z} out of range"
                            )));
                        }
                    }
                    symbols
                };
                if symbols.len() != nz {
                    // A stream that cannot describe every nonzero value
                    // (this indexed out of bounds before decode went
                    // total).
                    return Err(CodecError::Corrupt(format!(
                        "code stream holds {} symbols, need {nz}",
                        symbols.len()
                    )));
                }
                // Unpredictable raw values (8 bytes each).
                let n_unp = r.read_u32_le()? as usize;
                if n_unp > r.bounded_capacity(n_unp, 8) {
                    return Err(CodecError::Corrupt(format!(
                        "unpredictable count {n_unp} exceeds the {} remaining bytes",
                        r.remaining()
                    )));
                }
                let mut unpredictable = Vec::with_capacity(n_unp);
                for _ in 0..n_unp {
                    unpredictable.push(r.read_f64_le()?);
                }

                // Reconstruct log values block by block.
                let mut recon_logs = Vec::with_capacity(nz);
                let mut unp_iter = unpredictable.iter();
                let mut prev_recon: Option<f64> = None;
                let mut pos = 0usize;
                for &pred in &preds {
                    let blen = BLOCK_SIZE.min(nz - pos);
                    let mut block_recon: Vec<f64> = Vec::with_capacity(blen);
                    for i in 0..blen {
                        let sym = symbols[pos + i];
                        let p = match pred {
                            Predictor::Lorenzo => {
                                if i > 0 {
                                    block_recon[i - 1]
                                } else {
                                    prev_recon.unwrap_or(0.0)
                                }
                            }
                            Predictor::Mean(m) => m,
                            Predictor::Linear { a, b } => a + b * i as f64,
                        };
                        let t = if sym == ESCAPE {
                            *unp_iter.next().ok_or_else(|| {
                                CodecError::Corrupt("unpredictable underflow".into())
                            })?
                        } else {
                            p + 2.0 * delta * (sym as i64 - RADIUS) as f64
                        };
                        block_recon.push(t);
                    }
                    prev_recon = block_recon.last().copied().or(prev_recon);
                    recon_logs.extend_from_slice(&block_recon);
                    pos += blen;
                }

                let values = reassemble(n, &zero, &sign, &recon_logs);
                Ok(RegularTimeSeries::new(start, interval, values)?)
            }
            m => Err(CodecError::Corrupt(format!("unknown SZ mode {m}"))),
        }
    }
}

/// Re-inserts zeros and signs around reconstructed log magnitudes. The
/// bitmaps are word-backed bitsets indexed directly — no intermediate
/// `Vec<bool>` materialization on the decode path.
fn reassemble(n: usize, zero: &Bitset, sign: &Bitset, recon_logs: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut it = recon_logs.iter();
    for i in 0..n {
        if zero.get(i) {
            out.push(0.0);
        } else {
            let mag = it.next().copied().unwrap_or(0.0).exp();
            out.push(if sign.get(i) { -mag } else { mag });
        }
    }
    out
}

/// Number of maximal runs of identical consecutive values.
fn constant_runs(values: &[f64]) -> usize {
    if values.is_empty() {
        return 0;
    }
    1 + values.windows(2).filter(|w| w[0] != w[1]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::find_bound_violation;

    fn series(values: Vec<f64>) -> RegularTimeSeries {
        RegularTimeSeries::new(0, 600, values).unwrap()
    }

    fn wavy(n: usize) -> Vec<f64> {
        (0..n).map(|i| 20.0 + (i as f64 * 0.03).sin() * 8.0 + ((i * 7) % 5) as f64 * 0.05).collect()
    }

    #[test]
    fn roundtrip_respects_relative_bound() {
        let vals = wavy(3000);
        for eps in [0.01, 0.05, 0.2, 0.8] {
            let (d, _) = Sz.transform(&series(vals.clone()), eps).unwrap();
            assert_eq!(d.len(), vals.len());
            assert!(
                find_bound_violation(&vals, d.values(), eps, 1e-9).is_none(),
                "bound violated at eps {eps}"
            );
        }
    }

    #[test]
    fn zeros_and_signs_survive() {
        let vals = vec![0.0, -3.0, 2.0, 0.0, -0.5, 1e-8, 0.0];
        let (d, _) = Sz.transform(&series(vals.clone()), 0.3).unwrap();
        assert_eq!(d.values()[0], 0.0);
        assert_eq!(d.values()[3], 0.0);
        assert_eq!(d.values()[6], 0.0);
        assert!(d.values()[1] < 0.0);
        assert!(d.values()[4] < 0.0);
        assert!(find_bound_violation(&vals, d.values(), 0.3, 1e-12).is_none());
    }

    #[test]
    fn epsilon_zero_is_lossless() {
        let vals = wavy(500);
        let (d, _) = Sz.transform(&series(vals.clone()), 0.0).unwrap();
        assert_eq!(d.values(), &vals[..]);
    }

    #[test]
    fn quantization_creates_constant_runs() {
        // Paper Figure 1: "SZ seems to fit a constant line like PMC ...
        // due to the quantization step".
        let vals = wavy(4000);
        let c = Sz.compress(&series(vals.clone()), 0.2).unwrap();
        let runs_raw = constant_runs(&vals);
        assert!(c.num_segments < runs_raw, "{} vs {}", c.num_segments, runs_raw);
    }

    #[test]
    fn segment_count_drops_with_epsilon() {
        let vals = wavy(6000);
        let s = series(vals);
        let low = Sz.compress(&s, 0.05).unwrap().num_segments;
        let high = Sz.compress(&s, 0.5).unwrap().num_segments;
        assert!(high < low, "{high} vs {low}");
    }

    #[test]
    fn high_cr_at_low_epsilon_vs_pmc() {
        // Paper §4.2 / RQ1.2: SZ provides the highest CR at low error
        // bounds thanks to quantization + entropy coding.
        let vals = wavy(10_000);
        let s = series(vals);
        let sz = Sz.compress(&s, 0.01).unwrap().size_bytes();
        let pmc = crate::pmc::Pmc.compress(&s, 0.01).unwrap().size_bytes();
        assert!(sz < pmc, "sz {sz} vs pmc {pmc}");
    }

    #[test]
    fn smooth_blocks_use_cheap_predictors() {
        // A noiseless trending series should compress to very few bytes.
        let vals: Vec<f64> = (0..5000).map(|i| 100.0 + 0.01 * i as f64).collect();
        let s = series(vals.clone());
        let c = Sz.compress(&s, 0.05).unwrap();
        assert!(c.size_bytes() < 2000, "{}", c.size_bytes());
        let d = Sz.decompress(&c).unwrap();
        assert!(find_bound_violation(&vals, d.values(), 0.05, 1e-9).is_none());
    }

    #[test]
    fn spiky_outliers_stored_unpredictably_but_bounded() {
        let mut vals = wavy(1000);
        vals[100] = 1e6;
        vals[500] = 1e-6;
        vals[900] = -4000.0;
        let (d, _) = Sz.transform(&series(vals.clone()), 0.1).unwrap();
        assert!(find_bound_violation(&vals, d.values(), 0.1, 1e-6).is_none());
    }

    #[test]
    fn all_zero_series() {
        let vals = vec![0.0; 300];
        let (d, _) = Sz.transform(&series(vals.clone()), 0.5).unwrap();
        assert_eq!(d.values(), &vals[..]);
    }

    #[test]
    fn timestamps_roundtrip() {
        let s = RegularTimeSeries::new(777, 2, vec![3.0, 4.0, 5.0]).unwrap();
        let (d, _) = Sz.transform(&s, 0.1).unwrap();
        assert_eq!(d.start(), 777);
        assert_eq!(d.interval(), 2);
    }

    #[test]
    fn corrupt_data_detected() {
        let c = Sz.compress(&series(wavy(100)), 0.1).unwrap();
        let truncated = CompressedSeries {
            method: "SZ",
            bytes: deflate::compress(&[1, 2, 3]),
            num_segments: 0,
        };
        assert!(Sz.decompress(&truncated).is_err());
        // Flipping the mode byte inside is caught too.
        let inner = deflate::decompress(&c.bytes).unwrap();
        let mut bad = inner.clone();
        bad[10] = 9; // mode byte position: 6 header + 4 count
        let frame =
            CompressedSeries { method: "SZ", bytes: deflate::compress(&bad), num_segments: 0 };
        assert!(Sz.decompress(&frame).is_err());
    }

    #[test]
    fn legacy_huffman_mode_still_decodes() {
        // Mode-1 frames (the pre-blocked wire format) must decompress to
        // exactly what the blocked mode produces: the quantization
        // pipeline is shared, only the serialization differs.
        let mut vals = wavy(3000);
        vals[7] = 0.0;
        vals[100] = -vals[100];
        vals[2999] = 0.0;
        let s = series(vals.clone());
        for eps in [0.01, 0.2] {
            let legacy = compress_huffman(&s, eps).unwrap();
            let blocked = Sz.compress(&s, eps).unwrap();
            let dl = Sz.decompress(&legacy).unwrap();
            let db = Sz.decompress(&blocked).unwrap();
            assert_eq!(dl.values(), db.values(), "eps {eps}");
            assert_eq!(legacy.num_segments, blocked.num_segments);
            assert!(find_bound_violation(&vals, dl.values(), eps, 1e-9).is_none());
        }
    }

    #[test]
    fn blocked_mode_rejects_out_of_range_codes() {
        // A blocked frame holds zigzagged codes ≤ BLOCKED_ESCAPE; decode
        // must reject anything larger rather than fold it into a bogus
        // quantization bin. Build a one-value mode-2 frame whose symbol
        // stream carries an impossible code.
        assert_eq!(BLOCKED_ESCAPE, ESCAPE as u64, "escape sits right past the zigzag range");
        let make = |sym: u64| {
            let mut inner = timestamps::encode_header(0, 600);
            inner.extend_from_slice(&1u32.to_le_bytes()); // n = 1
            inner.push(MODE_BLOCKED);
            inner.extend_from_slice(&0.1f64.to_le_bytes());
            inner.push(0); // zero bitmap: the value is nonzero
            inner.push(0); // sign bitmap: positive
            inner.extend_from_slice(&1u32.to_le_bytes()); // num_blocks
            inner.push(0); // Lorenzo tag
            inner.extend_from_slice(&block::encode_u64s(&[sym]));
            inner.extend_from_slice(&0u32.to_le_bytes()); // no unpredictables
            CompressedSeries { method: "SZ", bytes: deflate::compress(&inner), num_segments: 1 }
        };
        assert!(Sz.decompress(&make(0)).is_ok(), "honest in-range code decodes");
        assert!(Sz.decompress(&make(BLOCKED_ESCAPE + 1)).is_err(), "out-of-range code rejected");
    }

    #[test]
    fn constant_runs_counting() {
        assert_eq!(constant_runs(&[]), 0);
        assert_eq!(constant_runs(&[1.0]), 1);
        assert_eq!(constant_runs(&[1.0, 1.0, 2.0, 2.0, 1.0]), 3);
    }
}
