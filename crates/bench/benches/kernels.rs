//! Tensor-kernel microbenchmarks: blocked matmul vs the scalar reference
//! kernel, layout-aware (`A·Bᵀ`, `Aᵀ·B`) variants vs explicit transposes,
//! and cached vs uncached grid transforms.
//!
//! Run with `cargo bench --bench kernels`. Besides printing a table, this
//! bench writes a machine-readable summary to `BENCH_kernels.json` at the
//! workspace root, which is committed so kernel regressions show up in
//! review diffs.

use compression::Method;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use evalcore::cache::{GridContext, Subset};
use evalcore::grid::GridConfig;
use evalcore::scenario::transform_series;
use neural::Tensor;
use tsdata::datasets::DatasetKind;

/// Deterministic dense matrix with values in [-1, 1).
fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect();
    Tensor::new(rows, cols, data)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 128, 512] {
        let a = matrix(n, n, 1);
        let b = matrix(n, n, 2);
        // 2·n³ flops per square product.
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| black_box(&a).matmul(black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |bench, _| {
            bench.iter(|| black_box(&a).reference_matmul(black_box(&b)))
        });
    }
    group.finish();
}

fn bench_matmul_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_into");
    for &n in &[32usize, 128] {
        let a = matrix(n, n, 3);
        let b = matrix(n, n, 4);
        let mut out = Tensor::zeros(n, n);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                black_box(&a).matmul_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
    }
    group.finish();
}

fn bench_layout_variants(c: &mut Criterion) {
    let n = 128usize;
    let a = matrix(n, n, 5);
    let b = matrix(n, n, 6);
    let mut group = c.benchmark_group("layout");
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    group.bench_function("nt_fused", |bench| bench.iter(|| black_box(&a).matmul_nt(black_box(&b))));
    group.bench_function("nt_via_transpose", |bench| {
        bench.iter(|| black_box(&a).matmul(&black_box(&b).transpose()))
    });
    group.bench_function("tn_fused", |bench| bench.iter(|| black_box(&a).matmul_tn(black_box(&b))));
    group.bench_function("tn_via_transpose", |bench| {
        bench.iter(|| black_box(&a).transpose().matmul(black_box(&b)))
    });
    group.finish();
}

fn bench_transform_cache(c: &mut Criterion) {
    // The forecast grid's hot lookup: `models x seeds` tasks request the
    // same (dataset, method, eps) test transform. "uncached" is what every
    // task paid before the shared cache; "cached" is the steady-state hit.
    let mut cfg = GridConfig::smoke();
    cfg.len = Some(4_000);
    let ctx = GridContext::new(cfg);
    let kind = DatasetKind::ETTm1;
    let ds = ctx.try_dataset(kind).expect("dataset splits");
    let mut group = c.benchmark_group("transform_cache");
    group.throughput(Throughput::Elements(ds.split.test.len() as u64));
    group.bench_function("uncached", |bench| {
        bench.iter(|| {
            transform_series(&ds.split.test, Method::Sz.compressor().as_ref(), 0.1)
                .expect("transform succeeds")
        })
    });
    group.bench_function("cached", |bench| {
        bench.iter(|| {
            ctx.transform(black_box(kind), Subset::Test, Method::Sz, 0.1)
                .expect("transform succeeds")
        })
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default().sample_size(20);
    bench_matmul(&mut criterion);
    bench_matmul_into(&mut criterion);
    bench_layout_variants(&mut criterion);
    bench_transform_cache(&mut criterion);

    // cargo bench runs with the package dir as cwd; anchor the summary at
    // the workspace root so it lands next to the sources it measures.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    criterion.save_json(path).expect("write BENCH_kernels.json");
    println!("wrote {path}");

    // Guardrail mirroring the acceptance criterion: the blocked kernel
    // must beat the scalar reference by >=2x on the 128x128 product.
    // Min-time is the robust estimator on a shared/noisy host: external
    // interference only ever inflates a sample, never deflates it.
    let records = criterion.records();
    let min_ns = |id: &str| {
        records
            .iter()
            .find(|r| r.group == "matmul" && r.id == id)
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let speedup = min_ns("reference/128") / min_ns("blocked/128");
    println!("blocked vs reference @128: {speedup:.2}x");
    assert!(speedup >= 2.0, "blocked matmul speedup {speedup:.2}x < 2x at 128");
}
