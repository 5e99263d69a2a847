//! Deterministic fuzz harness for decode totality (DESIGN.md §10).
//!
//! Every codec decoder must be *total* over arbitrary bytes: it returns
//! `Ok` or `Err(CodecError)` — never a panic, and never an allocation
//! proportional to a hostile length field rather than to the input. The
//! harness drives each decoder with seeded mutations of *valid* encoded
//! corpora (see [`compression::mutate`]): truncation, bit flips,
//! length-field tampering, cross-codec splicing, and byte scrambling, at
//! both container layers — the outer DEFLATE frame and the codec's inner
//! byte stream (re-wrapped in a valid frame so the inner parser, not the
//! DEFLATE checksum of structure, is what gets exercised).
//!
//! Failures replay from the case label alone (`seed=… kind=… target=…
//! round=…`): the mutation stream is a pure function of the seed.
//!
//! Alongside never-panics, the harness pins down the semantics corrupt
//! input must NOT have:
//! - decoding is deterministic (same bytes → bit-identical values);
//! - anything that decodes re-encodes without panicking (possibly to an
//!   `Err` — mutated series can hold NaN);
//! - Gorilla (lossless) is a strict byte fixpoint;
//! - PMC at ε = 0 is bitwise idempotent (decoded values are exactly the
//!   stored f32s);
//! - every lossy codec keeps its second generation inside the bound.

use compression::codec::{find_bound_violation, CompressedSeries, PeblcCompressor};
use compression::gorilla::Gorilla;
use compression::mutate::{sweep, ALL_MUTATIONS};
use compression::pmc::Pmc;
use compression::reader::ByteReader;
use compression::swing::Swing;
use compression::sz::{self, Sz};
use compression::{block, deflate, timestamps};
use tsdata::series::RegularTimeSeries;

/// The per-format floor every sweep asserts, in the default test command.
const MIN_CASES: usize = 1_000;

fn codecs() -> Vec<Box<dyn PeblcCompressor>> {
    vec![Box::new(Pmc), Box::new(Swing), Box::new(Sz), Box::new(Gorilla)]
}

/// Small but structurally diverse series: smooth, constant, zero/negative
/// crossings, realistic sensor data, and a minimal 3-point series.
fn corpus_series() -> Vec<RegularTimeSeries> {
    let smooth: Vec<f64> = (0..400).map(|i| 25.0 + (i as f64 * 0.05).sin() * 8.0).collect();
    let crossings: Vec<f64> =
        (0..200).map(|i| if i % 7 == 0 { 0.0 } else { ((i % 13) as f64 - 6.0) * 1.7 }).collect();
    let sensor = tsdata::datasets::generate_univariate(
        tsdata::datasets::DatasetKind::ETTm1,
        tsdata::datasets::GenOptions::with_len(300),
    );
    vec![
        RegularTimeSeries::new(0, 60, smooth).unwrap(),
        RegularTimeSeries::new(1_600_000_000, 900, vec![13.25; 150]).unwrap(),
        RegularTimeSeries::new(-120, 1, crossings).unwrap(),
        sensor,
        RegularTimeSeries::new(7, 3600, vec![1.0, -2.5, 1.0e6]).unwrap(),
    ]
}

/// Valid compressed frames for one codec over the corpus series.
fn encoded_corpus(codec: &dyn PeblcCompressor) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for s in corpus_series() {
        for eps in [0.01, 0.1] {
            out.push(codec.compress(&s, eps).expect("corpus encodes").bytes);
        }
    }
    out
}

/// The decode-totality oracle: decoding mutated bytes may fail but must
/// not panic; anything that decodes must decode deterministically and
/// re-encode without panicking.
fn assert_total(codec: &dyn PeblcCompressor, bytes: &[u8], label: &str) {
    let frame = CompressedSeries { method: codec.name(), bytes: bytes.to_vec(), num_segments: 0 };
    if let Ok(series) = codec.decompress(&frame) {
        let again = codec
            .decompress(&frame)
            .unwrap_or_else(|e| panic!("second decode of same bytes failed ({label}): {e}"));
        let a: Vec<u64> = series.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = again.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "decode must be deterministic: {label}");
        // A mutated-but-decodable series (which may contain NaN or huge
        // values) must round through the encoder without panicking;
        // rejecting it is fine.
        let _ = codec.compress(&series, 0.1);
    }
}

/// Sweeps mutations of the outer (DEFLATE-framed) representation.
#[test]
fn outer_frame_mutations_never_panic() {
    for codec in codecs() {
        let corpus = encoded_corpus(codec.as_ref());
        let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
        let total = sweep(&corpus, 0xC0DEC, rounds, |buf, label| {
            assert_total(codec.as_ref(), buf, label);
        });
        assert!(total >= MIN_CASES, "{}: only {total} outer cases", codec.name());
    }
}

/// Sweeps mutations of the inner byte stream, re-wrapped in a valid
/// DEFLATE frame so the codec's own parser sees every hostile byte.
#[test]
fn inner_stream_mutations_never_panic() {
    for codec in codecs() {
        let corpus: Vec<Vec<u8>> = encoded_corpus(codec.as_ref())
            .iter()
            .map(|bytes| deflate::decompress(bytes).expect("corpus frames are valid"))
            .collect();
        let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
        let total = sweep(&corpus, 0x1AE5, rounds, |buf, label| {
            assert_total(codec.as_ref(), &deflate::compress(buf), label);
        });
        assert!(total >= MIN_CASES, "{}: only {total} inner cases", codec.name());
    }
}

/// Raw DEFLATE container: mutated frames must decode to `Ok`/`Err`, never
/// panic, and whatever decodes must re-compress/re-decode to itself.
#[test]
fn deflate_mutations_never_panic() {
    let corpus: Vec<Vec<u8>> = [
        b"the quick brown fox ".repeat(80),
        vec![42u8; 4096],
        (0..2048u32).flat_map(|i| ((i as f64 * 0.01).sin()).to_le_bytes()).collect(),
        Vec::new(),
    ]
    .into_iter()
    .map(|data| deflate::compress(&data))
    .collect();
    let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
    let total = sweep(&corpus, 0xDEF1A7E, rounds, |buf, label| {
        if let Ok(data) = deflate::decompress(buf) {
            let back = deflate::decompress(&deflate::compress(&data)).expect("roundtrip");
            assert_eq!(back, data, "deflate roundtrip after decode: {label}");
        }
    });
    assert!(total >= MIN_CASES, "only {total} deflate cases");
}

/// Mutated timestamp streams must decode totally: `Ok`/`Err`,
/// deterministic, never a panic.
#[test]
fn timestamp_stream_mutations_never_panic() {
    let corpora: Vec<Vec<i64>> = vec![
        (0..500).map(|i| 1_600_000_000 + i * 60).collect(),
        (0..200).map(|i| i * 900 + if i % 17 == 0 { 3 } else { 0 }).collect(),
        vec![i64::MIN, -1, 0, 1, i64::MAX],
        (0..130).map(|i| (i * i) as i64).collect(),
    ];
    let corpus: Vec<Vec<u8>> =
        corpora.iter().map(|ts| timestamps::encode_stream_varbit(ts)).collect();
    let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
    let total = sweep(&corpus, 0x715_57A7, rounds, |buf, label| {
        let mut r = ByteReader::new(buf);
        if let Ok(ts) = timestamps::decode_stream(&mut r) {
            let mut r2 = ByteReader::new(buf);
            let again = timestamps::decode_stream(&mut r2)
                .unwrap_or_else(|e| panic!("second decode failed ({label}): {e}"));
            assert_eq!(ts, again, "decode must be deterministic: {label}");
        }
    });
    assert!(total >= MIN_CASES, "only {total} timestamp stream cases");
}

/// Mutated raw block streams must decode totally, under both kernels,
/// with identical outcomes.
#[test]
fn block_stream_mutations_never_panic() {
    let corpus: Vec<Vec<u8>> = [
        (0..300u64).collect::<Vec<u64>>(),
        (0..300u64).map(|i| if i % 19 == 0 { u64::MAX - i } else { i % 31 }).collect(),
        vec![0u64; 257],
        vec![u64::MAX; 40],
        Vec::new(),
    ]
    .iter()
    .map(|vals| block::encode_u64s(vals))
    .collect();
    let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
    let total = sweep(&corpus, 0xB10C, rounds, |buf, label| {
        let mut rb = ByteReader::new(buf);
        let blocked = block::decode_u64s_with(&mut rb, block::Kernel::Blocked);
        let mut rs = ByteReader::new(buf);
        let scalar = block::decode_u64s_with(&mut rs, block::Kernel::Scalar);
        match (blocked, scalar) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "kernels diverged: {label}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("kernels disagree on validity ({label}): {a:?} vs {b:?}"),
        }
    });
    assert!(total >= MIN_CASES, "only {total} block stream cases");
}

/// Mutated legacy SZ mode-1 frames (Huffman symbols, MSB-first bitmaps)
/// must stay total through the same decoder that handles mode-2 frames.
#[test]
fn legacy_sz_mode_mutations_never_panic() {
    let corpus: Vec<Vec<u8>> = corpus_series()
        .iter()
        .flat_map(|s| {
            [0.01, 0.1].map(|eps| sz::compress_huffman(s, eps).expect("corpus encodes").bytes)
        })
        .collect();
    let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
    let total = sweep(&corpus, 0x52_1E6A, rounds, |buf, label| {
        assert_total(&Sz, buf, label);
    });
    assert!(total >= MIN_CASES, "only {total} legacy SZ cases");
}

/// Empty and near-empty inputs are rejected, not sliced.
#[test]
fn degenerate_inputs_rejected() {
    for codec in codecs() {
        for bytes in [Vec::new(), vec![0u8], deflate::compress(&[]), deflate::compress(&[1])] {
            let frame = CompressedSeries { method: codec.name(), bytes, num_segments: 0 };
            assert!(codec.decompress(&frame).is_err(), "{}", codec.name());
        }
    }
}

/// Plants maximal count fields directly behind valid headers: the decoder
/// must reject them (the remaining input cannot hold that many records)
/// instead of reserving gigabytes.
#[test]
fn huge_count_fields_rejected_cheaply() {
    let header = timestamps::encode_header(0, 60);
    let huge = u32::MAX.to_le_bytes();

    // PMC / Swing / Gorilla: header + count.
    for codec in [&Pmc as &dyn PeblcCompressor, &Swing, &Gorilla] {
        let mut inner = header.clone();
        inner.extend_from_slice(&huge);
        inner.extend_from_slice(&[0xAB; 32]);
        let frame = CompressedSeries {
            method: codec.name(),
            bytes: deflate::compress(&inner),
            num_segments: 0,
        };
        assert!(codec.decompress(&frame).is_err(), "{}", codec.name());
    }

    // SZ mode 0: header + count + mode byte.
    let mut inner = header.clone();
    inner.extend_from_slice(&huge);
    inner.push(0);
    inner.extend_from_slice(&[0xAB; 32]);
    let frame =
        CompressedSeries { method: "SZ", bytes: deflate::compress(&inner), num_segments: 0 };
    assert!(Sz.decompress(&frame).is_err());

    // DEFLATE frame claiming a u32::MAX expansion of a 3-byte body.
    assert!(deflate::decompress(&[1, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3]).is_err());
}

/// Gorilla is lossless, so compress ∘ decompress is a strict byte
/// fixpoint: re-encoding a decoded series reproduces the frame exactly.
#[test]
fn gorilla_byte_fixpoint() {
    for s in corpus_series() {
        let c1 = Gorilla.compress(&s, 0.0).unwrap();
        let d1 = Gorilla.decompress(&c1).unwrap();
        let c2 = Gorilla.compress(&d1, 0.0).unwrap();
        assert_eq!(c1.bytes, c2.bytes, "gorilla re-encode must be byte-identical");
    }
}

/// PMC stores each segment value as an f32, so at ε = 0 a decoded series
/// is already exactly representable and a second pass is bitwise
/// idempotent.
#[test]
fn pmc_eps0_bitwise_idempotent() {
    for s in corpus_series() {
        let (d1, _) = Pmc.transform(&s, 0.0).unwrap();
        let (d2, _) = Pmc.transform(&d1, 0.0).unwrap();
        let a: Vec<u64> = d1.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = d2.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }
}

/// Every lossy codec's second generation stays within the bound of its
/// first: decode → encode → decode does not drift past ε (up to the f32
/// coefficient allowance `find_bound_violation` already grants).
#[test]
fn second_generation_stays_in_bound() {
    let lossy: [&dyn PeblcCompressor; 3] = [&Pmc, &Swing, &Sz];
    for codec in lossy {
        for s in corpus_series() {
            for eps in [0.01, 0.1] {
                let (d1, _) = codec.transform(&s, eps).unwrap();
                let (d2, _) = codec.transform(&d1, eps).unwrap();
                assert!(
                    find_bound_violation(d1.values(), d2.values(), eps, 1e-12).is_none(),
                    "{} second generation drifted at eps {eps}",
                    codec.name()
                );
            }
        }
    }
}
