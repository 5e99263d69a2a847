//! Deterministic fuzz sweep over the model-artifact binary format
//! (DESIGN.md §10): `decode_state` must be total — mutated artifact bytes
//! produce `Err(ArtifactError)`, never a panic and never an allocation
//! sized by a hostile header field. Mutations come from the shared
//! [`compression::mutate`] harness, so a CI failure replays from the case
//! label's seed alone.

use compression::mutate::{sweep, Lcg64, ALL_MUTATIONS};
use evalcore::artifact::{crc32, decode_state, encode_state};
use neural::state::StateDict;
use neural::tensor::Tensor;

/// The per-format floor the CI fuzz smoke job guarantees.
const MIN_CASES: usize = 1_000;

/// Valid artifacts of different shapes: empty dict, scalar-heavy dict,
/// one large tensor (deflate-compressed body), special float values, and
/// fitted-looking weights (a deflated body of near-uniform literals, whose
/// codes hit the Huffman table at 9–11 bits and fall back to the bit walk
/// for longer ones).
fn corpus() -> Vec<Vec<u8>> {
    let empty = StateDict::new();

    let mut scalars = StateDict::new();
    for i in 0..20 {
        scalars.insert(&format!("scalar.{i}"), Tensor::new(1, 1, vec![i as f64 * 1.25]));
    }

    let mut big = StateDict::new();
    big.insert("weights", Tensor::zeros(64, 64));
    big.insert("bias", Tensor::row(&[0.5; 64]));

    let mut specials = StateDict::new();
    specials.insert("s", Tensor::row(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300]));

    let mut rng = Lcg64::new(0x5EED_0064);
    let mut weights = StateDict::new();
    let values =
        (0..64 * 64).map(|_| (rng.below(1 << 53) as f64 / (1u64 << 53) as f64 - 0.5) * 0.2);
    weights.insert("layer.weight", Tensor::new(64, 64, values.collect()));

    let corpus: Vec<Vec<u8>> = [empty, scalars, big, specials, weights]
        .iter()
        .map(|d| encode_state(d).expect("corpus encodes"))
        .collect();
    assert_eq!(corpus[4][6] & 1, 1, "the weights body must be deflated");
    corpus
}

#[test]
fn mutated_artifacts_never_panic() {
    let corpus = corpus();
    let rounds = MIN_CASES.div_ceil(ALL_MUTATIONS.len() * corpus.len());
    let total = sweep(&corpus, 0x0A57_FAC7, rounds, |buf, label| {
        if let Ok(dict) = decode_state(buf) {
            // Vanishingly rare (the CRC must still match), but anything
            // that decodes must re-encode without panicking.
            let reencoded = encode_state(&dict)
                .unwrap_or_else(|e| panic!("decoded dict must re-encode ({label}): {e}"));
            let back = decode_state(&reencoded)
                .unwrap_or_else(|e| panic!("re-encoded dict must decode ({label}): {e}"));
            assert_eq!(back.len(), dict.len(), "entry count drifted: {label}");
        }
    });
    assert!(total >= MIN_CASES, "only {total} artifact cases");
}

/// Every strict truncation of a valid artifact is rejected (the header
/// promises exact body and payload lengths).
#[test]
fn every_truncation_rejected() {
    let bytes = corpus().remove(1);
    for cut in 0..bytes.len() {
        assert!(decode_state(&bytes[..cut]).is_err(), "truncation at {cut} decoded");
    }
}

/// A payload tensor claiming u32::MAX × u32::MAX scalars is rejected by
/// the payload decoder's capacity guard, not by an allocation attempt.
/// The CRC is recomputed over the tampered payload so the hostile shape
/// actually reaches `decode_payload` instead of tripping the checksum.
#[test]
fn hostile_tensor_shape_rejected() {
    let mut dict = StateDict::new();
    dict.insert("t", Tensor::new(1, 2, vec![1.0, 2.0]));
    let mut bytes = encode_state(&dict).expect("encodes");
    // The artifact stores this dict uncompressed (tiny payload); the
    // payload is an MSB-first bitstream, byte-aligned: count(32 bits),
    // then name_len(16) + name + rows(32) + cols(32) per entry.
    assert_eq!(bytes[6] & 1, 0, "tiny artifact must be stored uncompressed");
    let rows_at = 28 + 4 + 2 + 1;
    bytes[rows_at..rows_at + 8].copy_from_slice(&[0xFF; 8]);
    let crc = crc32(&bytes[28..]);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
    assert!(decode_state(&bytes).is_err());
}
