//! Codec throughput bench: encode+decode bytes/sec for every compressor,
//! the timestamp stream codec, the DEFLATE container on a raw series and
//! on a fitted model's weights, CRC32, and head-to-head rows for the
//! blocked SZ symbol kernel against its scalar baseline (Huffman bit-walk
//! symbol decode) measured in the same run, on the same host.
//!
//! Run with `cargo bench --bench codecs`; set `BENCH_SMOKE=1` for the CI
//! short mode. Writes `BENCH_codecs.json` at the workspace root (committed
//! so throughput regressions show up in review diffs) and asserts the
//! blocked SZ symbol unpack's >=4x decode speedup over the Huffman walk.
//!
//! A `calibration/memcpy` row pins the host's raw copy bandwidth so the CI
//! regression check can normalise codec numbers across machines.

use common::{bench_calibration, smoke};
use compression::bitstream::{BitReader, BitWriter};
use compression::block::{self, Kernel};
use compression::codec::{raw_bytes, PeblcCompressor};
use compression::gorilla::Gorilla;
use compression::huffman::CanonicalCode;
use compression::pmc::Pmc;
use compression::reader::ByteReader;
use compression::swing::Swing;
use compression::sz::Sz;
use compression::{crc32, deflate, timestamps};
use criterion::{black_box, Criterion, Throughput};
use evalcore::artifact::encode_state;
use forecast::{build_model, BuildOptions, ModelKind, Profile};
use tsdata::datasets::{generate, DatasetKind, GenOptions};
use tsdata::series::RegularTimeSeries;
use tsdata::split::{split, SplitSpec};

mod common;

fn codecs() -> Vec<Box<dyn PeblcCompressor>> {
    vec![Box::new(Pmc), Box::new(Swing), Box::new(Sz), Box::new(Gorilla)]
}

/// The series every per-codec row compresses: the ETTm1 recreation the
/// evaluation grid itself runs on.
fn bench_series(len: usize) -> RegularTimeSeries {
    tsdata::datasets::generate_univariate(
        tsdata::datasets::DatasetKind::ETTm1,
        tsdata::datasets::GenOptions::with_len(len),
    )
}

/// Encode + decode bytes/sec per codec, measured end-to-end through the
/// DEFLATE container exactly as the evaluation grid pays for them.
fn bench_codecs(c: &mut Criterion, len: usize) {
    let series = bench_series(len);
    let raw = raw_bytes(&series).len() as u64;

    let mut group = c.benchmark_group("codec_encode");
    group.throughput(Throughput::Bytes(raw));
    for codec in codecs() {
        group.bench_function(codec.name(), |b| {
            b.iter(|| codec.compress(black_box(&series), 0.1).expect("encodes"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("codec_decode");
    group.throughput(Throughput::Bytes(raw));
    for codec in codecs() {
        let frame = codec.compress(&series, 0.1).expect("encodes");
        group.bench_function(codec.name(), |b| {
            b.iter(|| codec.decompress(black_box(&frame)).expect("decodes"))
        });
    }
    group.finish();

    // The shared lossless container on its own.
    let inner = raw_bytes(&series);
    let frame = deflate::compress(&inner);
    let mut group = c.benchmark_group("deflate");
    group.throughput(Throughput::Bytes(raw));
    group.bench_function("encode", |b| b.iter(|| deflate::compress(black_box(&inner))));
    group.bench_function("decode", |b| {
        b.iter(|| deflate::decompress(black_box(&frame)).expect("decodes"))
    });
    // A registry fault-in's inflate: a fitted model's f64 weights deflate
    // by only a few percent, so nearly every symbol is a literal, where
    // the raw series above is mostly matches.
    let weights = nbeats_artifact_body();
    let inflated = deflate::decompress(&weights).expect("decodes").len() as u64;
    group.throughput(Throughput::Bytes(inflated));
    group.bench_function("decode_weights", |b| {
        b.iter(|| deflate::decompress(black_box(&weights)).expect("decodes"))
    });
    group.finish();

    let data: Vec<u8> =
        (0..1u32 << 20).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

/// The deflated body of an NBeats artifact fitted as the serving
/// benchmark's mixed workload fits its fleet: ETTm1, 1,000 points, input
/// 96, horizon 24, the Fast profile.
fn nbeats_artifact_body() -> Vec<u8> {
    let dataset = DatasetKind::ETTm1;
    let data = generate(dataset, GenOptions { len: Some(1_000), channels: Some(1), seed: 4 });
    let s = split(&data, SplitSpec::default()).expect("dataset splits");
    let mut model = build_model(
        ModelKind::NBeats,
        BuildOptions {
            input_len: 96,
            horizon: 24,
            season: Some(dataset.samples_per_day() as usize),
            seed: 40,
            profile: Profile::Fast,
        },
    );
    model.fit(&s.train, &s.val).expect("fits");
    let artifact = encode_state(&model.save_state().expect("exports")).expect("encodes");
    // The artifact header is 28 bytes; flag bit 0 (byte 6) marks a
    // deflated body.
    assert_eq!(artifact[6] & 1, 1, "the weights body is deflated");
    artifact[28..].to_vec()
}

/// Timestamp stream encode and decode (Gorilla-style delta-of-delta
/// prefix codes) on event-like timestamps with heavy-tailed per-value
/// arrival jitter: delta-of-deltas land unpredictably in the 7/9/12-bit
/// buckets, so the decoder pays its data-dependent branches on every
/// timestamp.
fn bench_timestamp_stream(c: &mut Criterion, n: usize) {
    let ts: Vec<i64> = (0..n as u64)
        .map(|i| {
            let mut s = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            s ^= s >> 31;
            let jitter = match s % 10 {
                0..=5 => (s >> 8) % 31,  // in-step noise (7-bit dods)
                6..=8 => (s >> 8) % 201, // late packets (9-bit dods)
                _ => (s >> 8) % 1601,    // stalls (12-bit dods)
            };
            1_600_000_000 + i as i64 * 60 + jitter as i64
        })
        .collect();
    let varbit = timestamps::encode_stream_varbit(&ts);

    let mut group = c.benchmark_group("timestamp_stream");
    group.throughput(Throughput::Bytes((n * 8) as u64));
    group.bench_function("encode_varbit", |b| {
        b.iter(|| timestamps::encode_stream_varbit(black_box(&ts)))
    });
    group.bench_function("decode_varbit", |b| {
        b.iter(|| {
            let mut r = ByteReader::new(black_box(&varbit));
            timestamps::decode_stream(&mut r).expect("decodes")
        })
    });
    group.finish();
}

/// SZ quantizer-symbol decode three ways: the legacy Huffman bit-walk
/// (scalar baseline), the 11-bit Huffman prefix table, and the blocked
/// zigzag packing SZ now writes. Symbols follow the skewed near-zero
/// distribution real quantization codes have.
fn bench_sz_symbols(c: &mut Criterion, n: usize) {
    // m in [-512, 512], heavily concentrated near 0 like smooth sensor data.
    let codes: Vec<i64> = (0..n as u64)
        .map(|i| {
            let mut s = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            s ^= s >> 29;
            match s % 100 {
                0..=69 => (s % 3) as i64 - 1,
                70..=94 => (s % 31) as i64 - 15,
                _ => (s % 1025) as i64 - 512,
            }
        })
        .collect();

    // Huffman stream over the shifted alphabet, as SZ mode 1 wrote it.
    let mut freqs = vec![0u64; 1026];
    for &m in &codes {
        freqs[(m + 512) as usize] += 1;
    }
    let code = CanonicalCode::from_freqs(&freqs).expect("code builds");
    let mut w = BitWriter::new();
    for &m in &codes {
        code.encode((m + 512) as usize, &mut w);
    }
    let huff_bytes = w.into_bytes();

    // Blocked stream over zigzagged codes, as SZ mode 2 writes it.
    let zz: Vec<u64> = codes.iter().map(|&m| block::zigzag(m)).collect();
    let packed = block::encode_u64s(&zz);

    let mut group = c.benchmark_group("sz_symbols");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("huffman_walk", |b| {
        b.iter(|| {
            let mut r = BitReader::new(black_box(&huff_bytes));
            let mut acc = 0usize;
            for _ in 0..n {
                acc ^= code.decode_walk(&mut r).expect("decodes");
            }
            acc
        })
    });
    group.bench_function("huffman_table", |b| {
        b.iter(|| {
            let mut r = BitReader::new(black_box(&huff_bytes));
            let mut acc = 0usize;
            for _ in 0..n {
                acc ^= code.decode(&mut r).expect("decodes");
            }
            acc
        })
    });
    group.bench_function("blocked", |b| {
        b.iter(|| {
            let mut r = ByteReader::new(black_box(&packed));
            block::decode_u64s_with(&mut r, Kernel::Blocked).expect("decodes")
        })
    });
    group.bench_function("blocked_scalar_kernel", |b| {
        b.iter(|| {
            let mut r = ByteReader::new(black_box(&packed));
            block::decode_u64s_with(&mut r, Kernel::Scalar).expect("decodes")
        })
    });
    group.finish();
}

fn main() {
    // Smoke mode runs the full-mode workloads and sample count, so the CI
    // gate compares like with like against the committed baseline: a
    // minimum over fewer samples reads higher.
    let len = 8_192;
    let mut criterion = Criterion::default().sample_size(20);
    bench_codecs(&mut criterion, len);
    bench_timestamp_stream(&mut criterion, len);
    bench_sz_symbols(&mut criterion, 4 * len);
    bench_calibration(&mut criterion);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codecs.json");
    criterion.save_json(path).expect("write BENCH_codecs.json");
    println!("wrote {path}");

    // Acceptance criterion from the blocked-kernel change, checked against
    // the scalar baseline measured moments ago in this very process.
    // Min-time is the robust estimator on a noisy host: interference only
    // ever inflates a sample.
    let records = criterion.records();
    let min_ns = |group: &str, id: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let sz_speedup = min_ns("sz_symbols", "huffman_walk") / min_ns("sz_symbols", "blocked");
    println!("blocked SZ symbol decode vs huffman walk: {sz_speedup:.2}x");
    // The floor holds in full mode only; CI's own check is the normalised
    // regression diff against the committed baseline.
    if !smoke() {
        assert!(sz_speedup >= 4.0, "blocked SZ symbol decode speedup {sz_speedup:.2}x < 4x");
    }
}
