//! Property tests for the blocked codec kernels (DESIGN.md §11): at every
//! bit width 0..=64, over empty inputs, partial final blocks, and
//! spill-heavy distributions, packing must roundtrip exactly and the
//! Blocked and Scalar kernels must emit byte-identical streams.

use compression::block::{self, Bitset, Kernel, LANE};
use compression::reader::ByteReader;
use proptest::prelude::*;

/// Deterministic xorshift64* fill so each case derives from one
/// proptest-provided seed.
fn fill(len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect()
}

/// Masks `v` down to `width` bits (the packing-domain invariant).
fn mask(v: u64, width: u8) -> u64 {
    if width == 0 {
        0
    } else if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// A mostly-narrow stream with occasional wide outliers, the distribution
/// the per-block spill fallback exists for.
fn spiky(len: usize, seed: u64) -> Vec<u64> {
    fill(len, seed).into_iter().map(|r| if r % 23 == 0 { r } else { r % 17 }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// pack → unpack is the identity at every width, for lengths that
    /// cover empty, sub-lane, exact-lane, and partial-final-block cases.
    #[test]
    fn pack_unpack_roundtrip_every_width(
        width in 0u8..=64,
        len in 0usize..(3 * LANE + 7),
        seed in any::<u64>(),
    ) {
        let values: Vec<u64> = fill(len, seed).into_iter().map(|v| mask(v, width)).collect();
        for kernel in [Kernel::Blocked, Kernel::Scalar] {
            let mut packed = Vec::new();
            block::pack_bits_into(&values, width, kernel, &mut packed);
            prop_assert_eq!(packed.len(), block::packed_len(len, width));
            let mut out = Vec::new();
            block::unpack_bits_into(&packed, len, width, kernel, &mut out).unwrap();
            prop_assert_eq!(&out, &values, "kernel {:?} width {}", kernel, width);
        }
    }

    /// The two kernels are interchangeable: byte-identical packs, and each
    /// kernel decodes the other's bytes.
    #[test]
    fn kernels_emit_and_accept_identical_bytes(
        width in 0u8..=64,
        len in 0usize..(2 * LANE + 5),
        seed in any::<u64>(),
    ) {
        let values: Vec<u64> = fill(len, seed).into_iter().map(|v| mask(v, width)).collect();
        let mut blocked = Vec::new();
        let mut scalar = Vec::new();
        block::pack_bits_into(&values, width, Kernel::Blocked, &mut blocked);
        block::pack_bits_into(&values, width, Kernel::Scalar, &mut scalar);
        prop_assert_eq!(&blocked, &scalar, "width {}", width);
        let mut cross = Vec::new();
        block::unpack_bits_into(&blocked, len, width, Kernel::Scalar, &mut cross).unwrap();
        prop_assert_eq!(&cross, &values);
    }

    /// The full block stream (per-block widths + varint spills) roundtrips
    /// arbitrary u64s, both kernels agree byte-for-byte, and decode stops
    /// exactly at the stream's end even with trailing junk.
    #[test]
    fn stream_roundtrip_with_spills(
        len in 0usize..(3 * LANE + 9),
        seed in any::<u64>(),
        junk in any::<u8>(),
    ) {
        let values = spiky(len, seed);
        let enc = block::encode_u64s_with(&values, Kernel::Blocked);
        prop_assert_eq!(&enc, &block::encode_u64s_with(&values, Kernel::Scalar));
        let mut framed = enc.clone();
        framed.extend_from_slice(&[junk; 5]);
        for kernel in [Kernel::Blocked, Kernel::Scalar] {
            let mut r = ByteReader::new(&framed);
            let out = block::decode_u64s_with(&mut r, kernel).unwrap();
            prop_assert_eq!(&out, &values, "kernel {:?}", kernel);
            prop_assert_eq!(r.position(), enc.len(), "stream must be self-delimiting");
        }
    }

    /// Uniform random u64s roundtrip too (worst case: near-64-bit widths,
    /// few spills worth taking).
    #[test]
    fn stream_roundtrip_wide_values(len in 0usize..300, seed in any::<u64>()) {
        let values = fill(len, seed);
        let enc = block::encode_u64s_with(&values, Kernel::Blocked);
        let mut r = ByteReader::new(&enc);
        prop_assert_eq!(block::decode_u64s_with(&mut r, Kernel::Blocked).unwrap(), values);
    }

    /// Varints roundtrip every u64 and match their predicted length.
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        block::write_varint(v, &mut buf);
        prop_assert_eq!(buf.len(), block::varint_len(v));
        let mut r = ByteReader::new(&buf);
        prop_assert_eq!(block::read_varint(&mut r).unwrap(), v);
        prop_assert!(r.is_empty());
    }

    /// Zigzag is an exact inverse pair for any i64 input, including the
    /// extreme magnitudes.
    #[test]
    fn zigzag_roundtrips_every_i64(ts in prop::collection::vec(any::<i64>(), 0..200)) {
        for &t in &ts {
            prop_assert_eq!(block::unzigzag(block::zigzag(t)), t);
        }
    }

    /// Bitset bit-indexing agrees with a Vec<bool> model, and both byte
    /// layouts (LSB-first wire, MSB-first legacy) roundtrip.
    #[test]
    fn bitset_matches_bool_model(
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let model: Vec<bool> = fill(len, seed).iter().map(|v| v % 3 == 0).collect();
        let mut bs = Bitset::with_len(len);
        for (i, &b) in model.iter().enumerate() {
            if b {
                bs.set(i);
            }
        }
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bs.get(i), b);
        }
        prop_assert_eq!(bs.count_ones(), model.iter().filter(|&&b| b).count());
        prop_assert_eq!(bs.count_zeros(), model.iter().filter(|&&b| !b).count());
        let le = Bitset::from_le_bytes(&bs.to_le_bytes(), len).unwrap();
        prop_assert_eq!(&le, &bs);
        let msb = Bitset::from_msb_bytes(&bs.to_msb_bytes(), len).unwrap();
        prop_assert_eq!(&msb, &bs);
    }

    /// Truncating a valid stream anywhere yields Err, never a panic and
    /// never a silently short result.
    #[test]
    fn truncated_streams_rejected(
        len in 1usize..(LANE + 40),
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let values = spiky(len, seed);
        let enc = block::encode_u64s_with(&values, Kernel::Blocked);
        let cut = ((enc.len() - 1) as f64 * frac) as usize;
        let mut r = ByteReader::new(&enc[..cut]);
        prop_assert!(block::decode_u64s_with(&mut r, Kernel::Blocked).is_err());
    }
}
