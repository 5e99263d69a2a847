//! CRC32 (IEEE 802.3) — the integrity checksum shared by the artifact
//! format in `evalcore` and the store's chunk headers.
//!
//! Slice-by-8: eight 256-entry tables, built at compile time from the
//! reflected polynomial `0xEDB88320`, fold eight input bytes per step.
//! Table `k` advances a byte's contribution past `k` further zero bytes,
//! so one step XORs eight lookups where the bytewise loop chains eight.

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = t[k - 1][i];
            t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop, one table lookup and shift per byte: the oracle
    /// for [`crc32`].
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"chunk payload bytes".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() * 8 {
            let mut tampered = data.clone();
            tampered[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&tampered), base, "bit {i}");
        }
    }

    #[test]
    fn matches_bytewise_reference_at_every_length_and_alignment() {
        let bytes: Vec<u8> =
            (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let s = &bytes[align..align + len];
                assert_eq!(crc32(s), reference_crc32(s), "align={align} len={len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_bytewise_reference(data in prop::collection::vec(any::<u8>(), 0..5_000)) {
            prop_assert_eq!(crc32(&data), reference_crc32(&data));
        }
    }
}
