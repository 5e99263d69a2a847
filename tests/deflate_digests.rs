//! Golden digests of `deflate::compress` output, in the default test
//! command. Every DEFLATE caller (codec frames, the Eq. 3 raw-size
//! baseline, store chunk seals, artifact saves) inherits these bytes, so
//! any change to the LZ77 matcher or the symbol coder that moves a single
//! output byte fails here.
//!
//! Unlike `tests/streaming_codecs.rs`, the inputs here run well past the
//! 32 KiB LZ77 window: 16,384-point raw streams (131 KB), copies at exactly
//! the window edge and one byte past it, a 300 KiB zero run, and a hash
//! chain longer than the matcher's chain limit.

use evalimplsts::compression::deflate::{compress, decompress};
use evalimplsts::compression::{crc32, raw_bytes, PeblcCompressor, Pmc, Swing, Sz};
use evalimplsts::tsdata::datasets::{generate_univariate, GenOptions, ALL_DATASETS};

const LEN: usize = 16_384;
const EPSILONS: [f64; 3] = [0.01, 0.1, 0.8];

/// `(input, CRC32 of the output, output length)` in sweep order. For a
/// codec frame the input is the codec's inner stream: the frame *is*
/// `deflate::compress` of it.
const GOLDEN: &[(&str, u32, usize)] = &[
    ("ETTm1/raw", 0xb11716fd, 39324),
    ("ETTm1/PMC/0.01", 0xee34d3eb, 26661),
    ("ETTm1/PMC/0.1", 0xba801e2b, 8586),
    ("ETTm1/PMC/0.8", 0xef2795cb, 1940),
    ("ETTm1/SWING/0.01", 0x3eee71d9, 35977),
    ("ETTm1/SWING/0.1", 0xd288010b, 11329),
    ("ETTm1/SWING/0.8", 0xefaa665f, 1985),
    ("ETTm1/SZ/0.01", 0x275b858e, 9968),
    ("ETTm1/SZ/0.1", 0x44e86133, 4233),
    ("ETTm1/SZ/0.8", 0x79fad7d1, 1923),
    ("ETTm2/raw", 0x3d09e5f3, 42461),
    ("ETTm2/PMC/0.01", 0x3b0facc0, 23904),
    ("ETTm2/PMC/0.1", 0x3b9c6f00, 6556),
    ("ETTm2/PMC/0.8", 0x7a00172a, 1320),
    ("ETTm2/SWING/0.01", 0x40f69537, 33234),
    ("ETTm2/SWING/0.1", 0xc11baceb, 7913),
    ("ETTm2/SWING/0.8", 0x0311f370, 1330),
    ("ETTm2/SZ/0.01", 0x93941359, 8146),
    ("ETTm2/SZ/0.1", 0x700194f1, 3415),
    ("ETTm2/SZ/0.8", 0x8d06a16f, 1244),
    ("Solar/raw", 0x012ad173, 15458),
    ("Solar/PMC/0.01", 0xda434177, 13902),
    ("Solar/PMC/0.1", 0x8a2ad03c, 7432),
    ("Solar/PMC/0.8", 0x7c277adc, 1238),
    ("Solar/SWING/0.01", 0x71db21a0, 15369),
    ("Solar/SWING/0.1", 0x56dc9315, 13219),
    ("Solar/SWING/0.8", 0xf6f0efa5, 1400),
    ("Solar/SZ/0.01", 0x594a8cb5, 6398),
    ("Solar/SZ/0.1", 0xde38d457, 2956),
    ("Solar/SZ/0.8", 0x6872b81c, 1285),
    ("Weather/raw", 0x988e539d, 35969),
    ("Weather/PMC/0.01", 0x1d5f54d2, 5611),
    ("Weather/PMC/0.1", 0xa74d6640, 201),
    ("Weather/PMC/0.8", 0x7bf0618a, 21),
    ("Weather/SWING/0.01", 0x2ae25089, 11444),
    ("Weather/SWING/0.1", 0x395b8b03, 225),
    ("Weather/SWING/0.8", 0x5ec5ce72, 25),
    ("Weather/SZ/0.01", 0x7f82c17d, 2911),
    ("Weather/SZ/0.1", 0x530b2581, 791),
    ("Weather/SZ/0.8", 0x3986a721, 192),
    ("ElecDem/raw", 0xa786c3de, 37327),
    ("ElecDem/PMC/0.01", 0x830938ea, 22046),
    ("ElecDem/PMC/0.1", 0x35b6bfce, 4257),
    ("ElecDem/PMC/0.8", 0x40e7a406, 87),
    ("ElecDem/SWING/0.01", 0x1aad529b, 36803),
    ("ElecDem/SWING/0.1", 0x4f40f0a7, 6467),
    ("ElecDem/SWING/0.8", 0x7965b725, 25),
    ("ElecDem/SZ/0.01", 0xbbba84b1, 7366),
    ("ElecDem/SZ/0.1", 0x4ebee203, 2633),
    ("ElecDem/SZ/0.8", 0xbe0dec46, 1650),
    ("Wind/raw", 0x3c723852, 27518),
    ("Wind/PMC/0.01", 0x92238856, 24812),
    ("Wind/PMC/0.1", 0x1835b3c6, 9358),
    ("Wind/PMC/0.8", 0x67868866, 1856),
    ("Wind/SWING/0.01", 0x01b1e3e9, 30999),
    ("Wind/SWING/0.1", 0x11bdb4d2, 15438),
    ("Wind/SWING/0.8", 0x88c60d14, 2002),
    ("Wind/SZ/0.01", 0x08b485fa, 10491),
    ("Wind/SZ/0.1", 0x03e886cd, 4625),
    ("Wind/SZ/0.8", 0x5b0a2c31, 1992),
    ("window-edge", 0xd11705e6, 45296),
    ("zeros-300KiB", 0xaf0fe831, 463),
    ("long-chain", 0xce33b04a, 4979),
    ("zeros/0", 0xc622f71d, 5),
    ("abc/0", 0xc622f71d, 5),
    ("zeros/1", 0x8ca28813, 6),
    ("abc/1", 0xb617d9dd, 6),
    ("zeros/2", 0xd0a47e75, 7),
    ("abc/2", 0x0ffe24e7, 7),
    ("zeros/3", 0x54cac5f4, 8),
    ("abc/3", 0x9eaf5d24, 8),
    ("zeros/4", 0x62431a54, 9),
    ("abc/4", 0xdeeffcd6, 9),
    ("zeros/5", 0xa91d2d39, 10),
    ("abc/5", 0x09ab63a7, 10),
    ("zeros/6", 0x6699c1ab, 11),
    ("abc/6", 0xa535f944, 11),
    ("zeros/7", 0x52eed3ec, 12),
    ("abc/7", 0x582dd1f3, 12),
    ("zeros/8", 0x0978307c, 13),
    ("abc/8", 0x27c6feff, 13),
];

/// xorshift32 bytes: incompressible, so every match in the output is one
/// the input builds in on purpose.
fn noise(len: usize, seed: u32) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

/// A 40 KiB noise block, then 4 KiB that repeats the bytes exactly 32,768
/// back (the farthest distance DEFLATE can code), then 4 KiB that repeats
/// the bytes 32,769 back (one past it).
fn window_edge() -> Vec<u8> {
    let mut data = noise(40 * 1024, 0x9e37_79b9);
    for dist in [32_768, 32_769] {
        for _ in 0..4096 {
            data.push(data[data.len() - dist]);
        }
    }
    data
}

/// 400 records that share their first three bytes (so one hash chain holds
/// every record) but differ after it, then the first record again: its only
/// full-length copy sits past the 96-entry chain limit.
fn long_chain() -> Vec<u8> {
    let record = |k: u32| {
        let mut r = b"key".to_vec();
        r.extend_from_slice(&k.to_le_bytes());
        r.extend_from_slice(&noise(9, k + 1));
        r
    };
    let mut data: Vec<u8> = (0..400).flat_map(record).collect();
    data.extend(record(0));
    data.extend(record(399));
    data
}

fn inputs() -> Vec<(String, Vec<u8>)> {
    let lossy: [&dyn PeblcCompressor; 3] = [&Pmc, &Swing, &Sz];
    let mut out = Vec::new();
    for kind in ALL_DATASETS {
        let s = generate_univariate(kind, GenOptions::with_len(LEN));
        out.push((format!("{kind:?}/raw"), raw_bytes(&s)));
        for codec in lossy {
            for eps in EPSILONS {
                let frame = codec.compress(&s, eps).unwrap().bytes;
                let inner = decompress(&frame).expect("codec frame is a deflate stream");
                assert_eq!(compress(&inner), frame, "{kind:?}/{}/{eps}", codec.name());
                out.push((format!("{kind:?}/{}/{eps}", codec.name()), inner));
            }
        }
    }
    out.push(("window-edge".into(), window_edge()));
    out.push(("zeros-300KiB".into(), vec![0u8; 300 * 1024]));
    out.push(("long-chain".into(), long_chain()));
    for len in 0..=8 {
        out.push((format!("zeros/{len}"), vec![0u8; len]));
        out.push((format!("abc/{len}"), b"abcabcab"[..len].to_vec()));
    }
    out
}

#[test]
fn deflate_output_matches_golden_digests() {
    let got: Vec<(String, u32, usize)> = inputs()
        .into_iter()
        .map(|(key, data)| {
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data, "{key}: roundtrip");
            (key, crc32(&c), c.len())
        })
        .collect();
    let table: String =
        got.iter().map(|(k, c, n)| format!("    (\"{k}\", 0x{c:08x}, {n}),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((key, crc, len), (want_key, want_crc, want_len)) in got.iter().zip(GOLDEN) {
        assert_eq!(key, want_key, "sweep order drifted; golden table:\n{table}");
        assert_eq!((*crc, *len), (*want_crc, *want_len), "{key}: deflate output changed");
    }
}
