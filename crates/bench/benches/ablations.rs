//! Ablation benches for the design choices DESIGN.md §5 calls out.
//! Criterion measures runtime; each bench also prints the quality metric
//! the ablation is about (CR or bits) once at setup, so `cargo bench`
//! output doubles as the ablation report.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use compression::codec::PeblcCompressor;
use compression::deflate;
use compression::gorilla::ValueAppender;
use compression::pmc::{segment_values_repr, Representative};
use compression::ppa::Ppa;
use compression::{raw_compressed_size, Pmc, Swing, Sz};
use forecast::gboost::{GBoost, GBoostConfig, MultiStep};
use forecast::model::Forecaster;
use tsdata::datasets::{generate, generate_univariate, DatasetKind, GenOptions};
use tsdata::split::{split, SplitSpec};

fn series(n: usize) -> tsdata::series::RegularTimeSeries {
    generate_univariate(DatasetKind::ETTm1, GenOptions::with_len(n))
}

/// PMC representative policy: mean vs midrange vs snapped — report the
/// deflated stream size each yields and bench the segmentation cost.
fn ablate_pmc_representative(c: &mut Criterion) {
    let s = series(8_192);
    let mut group = c.benchmark_group("ablate_pmc_representative");
    for (name, repr) in [
        ("mean", Representative::Mean),
        ("midrange", Representative::Midrange),
        ("snapped", Representative::Snapped),
    ] {
        let segments = segment_values_repr(s.values(), 0.2, repr);
        let stream: Vec<u8> = segments
            .iter()
            .flat_map(|seg| {
                let mut rec = (seg.len as u16).to_le_bytes().to_vec();
                rec.extend_from_slice(&(seg.value as f32).to_le_bytes());
                rec
            })
            .collect();
        println!(
            "[ablation] PMC repr={name}: {} segments, deflated {} bytes",
            segments.len(),
            deflate::compressed_size(&stream)
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| segment_values_repr(black_box(s.values()), 0.2, repr))
        });
    }
    group.finish();
}

/// SZ's final lossless pass: sizes with and without it (paper §3.2 applies
/// gzip last); bench the full pipeline.
fn ablate_sz_final_deflate(c: &mut Criterion) {
    let s = series(8_192);
    let frame = Sz.compress(&s, 0.1).expect("compresses");
    let inner = deflate::decompress(&frame.bytes).expect("own frame");
    println!(
        "[ablation] SZ inner (no deflate) = {} bytes; with final pass = {} bytes; raw gz = {}",
        inner.len(),
        frame.size_bytes(),
        raw_compressed_size(&s)
    );
    c.bench_function("ablate_sz_final_deflate/full_pipeline", |b| {
        b.iter(|| Sz.compress(black_box(&s), 0.1).expect("compresses"))
    });
}

/// Gorilla bits for one block of values, through the one value encoder.
fn gorilla_bits(block: &[f64]) -> usize {
    let mut a = ValueAppender::with_capacity(block.len());
    for &v in block {
        a.push(v);
    }
    a.len_bits()
}

/// Gorilla block policy: the paper compresses the whole series as one
/// block instead of the original two-hour blocks (§3.3) — compare bits.
fn ablate_gorilla_blocks(c: &mut Criterion) {
    let s = series(8_192);
    let whole = gorilla_bits(s.values());
    // Two-hour blocks at 15-minute sampling = 8 points per block.
    let blocked: usize = s.values().chunks(8).map(gorilla_bits).sum();
    println!(
        "[ablation] GORILLA whole-series = {whole} bits; 2h blocks = {blocked} bits \
         (blocked/whole size ratio {:.2}; per-block 64-bit restarts trade against \
         window-reuse quality)",
        blocked as f64 / whole as f64
    );
    let mut group = c.benchmark_group("ablate_gorilla_blocks");
    group.bench_function("whole_series", |b| b.iter(|| gorilla_bits(black_box(s.values()))));
    group.bench_function("two_hour_blocks", |b| {
        b.iter(|| black_box(s.values()).chunks(8).map(gorilla_bits).sum::<usize>())
    });
    group.finish();
}

/// Polynomial degree ablation (the paper's §3.2 low-degree argument):
/// constant (PMC) vs linear (Swing) vs quadratic (PPA) on the same series.
fn ablate_polynomial_degree(c: &mut Criterion) {
    let s = series(8_192);
    let raw_gz = raw_compressed_size(&s);
    let candidates: Vec<(&str, Box<dyn PeblcCompressor>)> = vec![
        ("constant(PMC)", Box::new(Pmc)),
        ("linear(SWING)", Box::new(Swing)),
        ("quadratic(PPA)", Box::new(Ppa::default())),
    ];
    let mut group = c.benchmark_group("ablate_polynomial_degree");
    for (name, compressor) in &candidates {
        let frame = compressor.compress(&s, 0.2).expect("compresses");
        println!(
            "[ablation] degree {name}: {} segments, {} bytes (raw gz {raw_gz})",
            frame.num_segments,
            frame.size_bytes()
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| compressor.compress(black_box(&s), 0.2).expect("compresses"))
        });
    }
    group.finish();
}

/// GBoost multi-step strategy: direct (one booster per step) vs recursive
/// (one booster fed back) — fit cost, with test RMSE printed.
fn ablate_gboost_strategy(c: &mut Criterion) {
    let data = generate(DatasetKind::ETTm1, GenOptions::with_len(2_000));
    let s = split(&data, SplitSpec::default()).expect("splits");
    let mut group = c.benchmark_group("ablate_gboost_strategy");
    group.sample_size(10);
    for (name, strategy) in [("direct", MultiStep::Direct), ("recursive", MultiStep::Recursive)] {
        let config = GBoostConfig { input_len: 96, horizon: 24, strategy, ..Default::default() };
        let mut model = GBoost::new(config.clone());
        model.fit(&s.train, &s.val).expect("fits");
        let window = s.test.target().values()[..96].to_vec();
        let actual = &s.test.target().values()[96..120];
        let pred = model.predict(&[window]).expect("predicts");
        println!(
            "[ablation] GBoost {name}: test RMSE = {:.4}",
            tsdata::metrics::rmse(actual, &pred)
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut m = GBoost::new(config.clone());
                m.fit(black_box(&s.train), black_box(&s.val)).expect("fits");
                m
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablate_pmc_representative,
        ablate_sz_final_deflate,
        ablate_gorilla_blocks,
        ablate_polynomial_degree,
        ablate_gboost_strategy
);
criterion_main!(benches);
