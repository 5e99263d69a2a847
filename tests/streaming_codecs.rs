//! Frame-level contracts of the streaming codecs, in the default test
//! command:
//!
//! * golden CRC32 digests of PMC/SWING/SZ/GORILLA frames and of the varbit
//!   timestamp stream, so any change to an encode loop that moves a single
//!   frame byte fails here;
//! * `compress_source` (the streaming path) is byte-identical to the batch
//!   `compress` even when one segment runs past the 16-bit length field;
//! * the store keeps every point of a PMC chunk that holds NaN and ±inf.

use evalimplsts::compression::{
    compress_source, crc32, find_bound_violation, timestamps, Gorilla, Method, PeblcCompressor,
    Pmc, Swing, Sz,
};
use evalimplsts::tsdata::datasets::{generate_univariate, DatasetKind, GenOptions};
use evalimplsts::tsdata::series::{RegularTimeSeries, SeriesSource};
use store::{ChunkCodec, SeriesId, StoreConfig, TsStore};

const KINDS: [DatasetKind; 3] = [DatasetKind::ETTm1, DatasetKind::ElecDem, DatasetKind::Wind];
const EPSILONS: [f64; 3] = [0.01, 0.1, 0.4];

/// CRC32 of every frame the golden sweep encodes, in sweep order, recorded
/// from the separate batch encode loops that predate the single streaming
/// encoder per codec.
const GOLDEN: &[(&str, u32)] = &[
    ("ETTm1/PMC/0.01", 0x3a28469e),
    ("ETTm1/PMC/0.1", 0x2b63b651),
    ("ETTm1/PMC/0.4", 0x710df948),
    ("ETTm1/SWING/0.01", 0x06a5be33),
    ("ETTm1/SWING/0.1", 0xa34b3f16),
    ("ETTm1/SWING/0.4", 0xcac69d03),
    ("ETTm1/SZ/0.01", 0x8ce69423),
    ("ETTm1/SZ/0.1", 0xb8631628),
    ("ETTm1/SZ/0.4", 0xe5c7eebc),
    ("ETTm1/GORILLA", 0x371e1762),
    ("ElecDem/PMC/0.01", 0xfffddbfd),
    ("ElecDem/PMC/0.1", 0x7a6bea27),
    ("ElecDem/PMC/0.4", 0xb2c9a1f5),
    ("ElecDem/SWING/0.01", 0x2509693d),
    ("ElecDem/SWING/0.1", 0x2e333bf1),
    ("ElecDem/SWING/0.4", 0x6b95d58c),
    ("ElecDem/SZ/0.01", 0xd7fe0f60),
    ("ElecDem/SZ/0.1", 0x06a43019),
    ("ElecDem/SZ/0.4", 0xdf469a17),
    ("ElecDem/GORILLA", 0xd4c21920),
    ("Wind/PMC/0.01", 0x5918f3ac),
    ("Wind/PMC/0.1", 0x931a49cd),
    ("Wind/PMC/0.4", 0x4f2bd8fd),
    ("Wind/SWING/0.01", 0x57b22c49),
    ("Wind/SWING/0.1", 0x18f43b9b),
    ("Wind/SWING/0.4", 0x3f3f0f7d),
    ("Wind/SZ/0.01", 0x5273c057),
    ("Wind/SZ/0.1", 0xb566a80f),
    ("Wind/SZ/0.4", 0x11eb70c4),
    ("Wind/GORILLA", 0x6708f102),
    ("long/PMC", 0xe2b33daa),
    ("long/SWING", 0xf81146e1),
    ("hostile/PMC", 0x30e30540),
    ("hostile/SWING", 0x718969c8),
    ("hostile/GORILLA", 0x475c6f45),
    ("timestamps/varbit", 0x9b8a2f39),
];

fn series(values: Vec<f64>) -> RegularTimeSeries {
    RegularTimeSeries::new(0, 60, values).unwrap()
}

/// Finite values interleaved with NaN, ±inf, signed zeros and subnormals.
fn hostile() -> RegularTimeSeries {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e-310];
    series(
        (0..600)
            .map(|i| if i % 37 == 5 { specials[i / 37 % 6] } else { 10.0 + (i % 9) as f64 })
            .collect(),
    )
}

fn frame_digests() -> Vec<(String, u32)> {
    let lossy: [&dyn PeblcCompressor; 3] = [&Pmc, &Swing, &Sz];
    let mut out = Vec::new();
    let mut push = |key: String, bytes: &[u8]| out.push((key, crc32(bytes)));
    for kind in KINDS {
        let s = generate_univariate(kind, GenOptions::with_len(4_000));
        for codec in lossy {
            for eps in EPSILONS {
                push(
                    format!("{kind:?}/{}/{eps}", codec.name()),
                    &codec.compress(&s, eps).unwrap().bytes,
                );
            }
        }
        push(format!("{kind:?}/GORILLA"), &Gorilla.compress(&s, 0.0).unwrap().bytes);
    }
    // One logical segment past the 16-bit length field.
    let (flat, ramp) = long_runs();
    push("long/PMC".into(), &Pmc.compress(&flat, 0.1).unwrap().bytes);
    push("long/SWING".into(), &Swing.compress(&ramp, 0.05).unwrap().bytes);
    for codec in [&Pmc as &dyn PeblcCompressor, &Swing, &Gorilla] {
        push(format!("hostile/{}", codec.name()), &codec.compress(&hostile(), 0.1).unwrap().bytes);
    }
    // A jittered 15-minute timeline with occasional gaps and one large
    // backwards jump, so every varbit prefix class appears.
    let ts: Vec<i64> = (0..3_000i64)
        .map(|i| {
            1_600_000_000 + i * 900 + (i * 7919 % 13) * 11 + if i % 211 == 0 { 86_400 } else { 0 }
                - if i == 1_500 { 1_000_000 } else { 0 }
        })
        .collect();
    push("timestamps/varbit".into(), &timestamps::encode_stream_varbit(&ts));
    out
}

/// A constant run (one PMC segment) and a linear ramp (one Swing segment),
/// each longer than `u16::MAX` points.
fn long_runs() -> (RegularTimeSeries, RegularTimeSeries) {
    let n = 3 * u16::MAX as usize / 2;
    (series(vec![5.0; n]), series((0..n).map(|i| 1.0 + 0.001 * i as f64).collect()))
}

#[test]
fn frames_match_golden_digests() {
    let got = frame_digests();
    let table: String = got.iter().map(|(k, c)| format!("    (\"{k}\", 0x{c:08x}),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table:\n{table}");
    for ((key, crc), (want_key, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(key, want_key, "sweep order drifted; golden table:\n{table}");
        assert_eq!(*crc, *want, "{key}: frame bytes changed");
    }
}

#[test]
fn compress_source_matches_batch_past_the_16bit_segment_length() {
    let (flat, ramp) = long_runs();
    for (method, s, eps) in [(Method::Pmc, &flat, 0.1), (Method::Swing, &ramp, 0.05)] {
        let streamed = compress_source(s, method, eps).unwrap();
        let batch = method.compressor().compress(s, eps).unwrap();
        assert_eq!(streamed.bytes, batch.bytes, "{method:?}");
        assert_eq!(streamed.num_segments, batch.num_segments, "{method:?}");
        assert_eq!(batch.num_segments, 1, "{method:?}: one logical segment");
        assert_eq!(method.compressor().decompress(&streamed).unwrap().len(), s.len());
    }
}

#[test]
fn store_keeps_every_point_of_a_pmc_chunk_with_non_finite_values() {
    let n = 300;
    let mut values: Vec<f64> = (0..n).map(|i| 20.0 + (i as f64 * 0.1).sin()).collect();
    values[100] = f64::NAN;
    values[150] = f64::INFINITY;
    values[200] = f64::NEG_INFINITY;
    let store = TsStore::new(StoreConfig::default());
    let id = SeriesId(1);
    store.create_series(id, ChunkCodec::Pmc, 0.05).unwrap();
    store.append_batch(id, values.iter().enumerate().map(|(i, &v)| (i as i64 * 60, v))).unwrap();
    store.seal_series(id).unwrap();

    let view = store.read(id).unwrap();
    assert_eq!(view.len(), n);
    let decoded: Vec<f64> = view
        .chunks()
        .flat_map(|c| c.decode().expect("sealed chunk decodes").into_values())
        .collect();
    assert_eq!(decoded.len(), n, "every ingested point decodes");
    assert_eq!(find_bound_violation(&values, &decoded, 0.05, 1e-9), None);
    // The chunk is segmented exactly as the batch PMC frame of the values.
    let batch = Pmc.compress(&series(values), 0.05).unwrap();
    assert_eq!(view.chunks().next().unwrap().num_segments(), batch.num_segments);
}
