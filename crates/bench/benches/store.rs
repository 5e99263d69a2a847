//! Chunked-store throughput bench: ingest points/sec, sealed bytes/point,
//! chunk read (decode) throughput, the 96-point trailing window a served
//! forecast reads, and the streaming re-encode transform.
//!
//! Run with `cargo bench --bench store`; set `BENCH_SMOKE=1` for the CI
//! short mode. Writes `BENCH_store.json` at the workspace root (committed
//! so regressions show up in review diffs) and asserts in full mode: at
//! least 10M points/sec Gorilla ingest, at most 2 bytes/point on the
//! Gorilla sealed path for integer-grade sensor data, and a window read at
//! 1,048,576 points costing at most 2x the one at 4,096 (a read decodes
//! only the chunk it covers).

use common::{bench_calibration, smoke};
use compression::Method;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use store::{ChunkCodec, SeriesId, StoreConfig, TsStore};
use tsdata::series::SeriesSource;

mod common;

/// Integer-grade sensor workload: a slow diurnal wave rounded to whole
/// units, like a temperature or demand gauge. Repeated values and small
/// integer steps are exactly what Gorilla's XOR path compresses well —
/// this is the regime behind the paper's "lossless staging is cheap"
/// premise, not an artificially constant series.
fn sensor_points(n: usize) -> Vec<(i64, f64)> {
    (0..n).map(|i| (i as i64 * 60, (40.0 + 10.0 * (i as f64 * 5e-4).sin()).round())).collect()
}

fn ingested(points: &[(i64, f64)], codec: ChunkCodec, eps: f64) -> TsStore {
    let store = TsStore::new(StoreConfig::default());
    store.create_series(SeriesId(0), codec, eps).expect("fresh store");
    store.append_batch(SeriesId(0), points.iter().copied()).expect("regular cadence");
    store.seal_series(SeriesId(0)).expect("seals");
    store
}

/// Bulk ingest through the per-series appenders, points/sec.
fn bench_ingest(c: &mut Criterion, n: usize) {
    let points = sensor_points(n);
    let mut group = c.benchmark_group("store_ingest");
    group.throughput(Throughput::Elements(n as u64));
    for (id, codec, eps) in [
        ("gorilla", ChunkCodec::Gorilla, 0.0),
        ("pmc", ChunkCodec::Pmc, 0.05),
        ("swing", ChunkCodec::Swing, 0.05),
    ] {
        group.bench_function(id, |b| b.iter(|| ingested(black_box(&points), codec, eps)));
    }
    group.finish();
}

/// Chunk-at-a-time reads: full decode of a sealed series via `PointIter`.
fn bench_read(c: &mut Criterion, n: usize) {
    let store = ingested(&sensor_points(n), ChunkCodec::Gorilla, 0.0);
    let view = store.read(SeriesId(0)).expect("series exists");
    let mut group = c.benchmark_group("store_read");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("gorilla_points", |b| {
        b.iter(|| black_box(&view).points().map(|p| p.value).sum::<f64>())
    });
    group.finish();
}

/// The trailing 96-point window a served forecast reads
/// (`read` + `iter_values().skip(len - 96)`): on sealed Gorilla series of
/// growing length, where it decodes the one chunk holding the window, and
/// on serve-hot's 512-point open chunk, whose decoded values the store
/// caches.
fn bench_tail(c: &mut Criterion) {
    const WINDOW: usize = 96;
    let tail = |store: &TsStore| {
        let view = store.read(SeriesId(0)).expect("series exists");
        view.iter_values().skip(view.len() - WINDOW).collect::<Vec<f64>>()
    };
    let mut group = c.benchmark_group("store_read");
    group.throughput(Throughput::Elements(WINDOW as u64));
    for n in [4_096, 65_536, 1_048_576] {
        let store = ingested(&sensor_points(n), ChunkCodec::Gorilla, 0.0);
        group.bench_function(BenchmarkId::from_parameter(format!("tail96_{n}")), |b| {
            b.iter(|| tail(black_box(&store)))
        });
    }
    let open = TsStore::new(StoreConfig::default());
    open.create_series(SeriesId(0), ChunkCodec::Gorilla, 0.0).expect("fresh store");
    open.append_batch(SeriesId(0), sensor_points(512)).expect("regular cadence");
    group.bench_function("tail96_open", |b| b.iter(|| tail(black_box(&open))));
    group.finish();
}

/// The store-backed grid's transform: stream staged Gorilla chunks
/// through the online PMC encoder under an error bound.
fn bench_transform(c: &mut Criterion, n: usize) {
    let store = ingested(&sensor_points(n), ChunkCodec::Gorilla, 0.0);
    let view = store.read(SeriesId(0)).expect("series exists");
    let mut group = c.benchmark_group("store_transform");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("pmc_eps0.05", |b| {
        b.iter(|| {
            compression::compress_source(black_box(&view), Method::Pmc, 0.05).expect("encodes")
        })
    });
    group.finish();
}

fn main() {
    // Smoke mode keeps the full-mode sample count, so CI's gate compares
    // like with like against the committed baseline: a minimum over fewer
    // samples reads higher.
    let mut criterion = Criterion::default().sample_size(15);
    let n = 1_000_000;
    bench_ingest(&mut criterion, n);
    bench_read(&mut criterion, n);
    bench_tail(&mut criterion);
    bench_transform(&mut criterion, 250_000);
    bench_calibration(&mut criterion);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    criterion.save_json(path).expect("write BENCH_store.json");
    println!("wrote {path}");

    // Acceptance criteria for the store PR, measured in this process.
    // Min-time is the robust estimator on a noisy host.
    let records = criterion.records();
    let min_ns = |group: &str, id: &str| {
        records
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let ingest_pps = n as f64 / (min_ns("store_ingest", "gorilla") / 1e9);
    println!("gorilla ingest: {:.1}M points/sec", ingest_pps / 1e6);

    let store = ingested(&sensor_points(n), ChunkCodec::Gorilla, 0.0);
    let view = store.read(SeriesId(0)).expect("series exists");
    let sealed = store.sealed_bytes(SeriesId(0)).expect("series exists");
    let bpp = sealed as f64 / view.len() as f64;
    println!(
        "gorilla sealed: {sealed} bytes over {} points = {bpp:.3} bytes/point in {} chunk(s)",
        view.len(),
        view.num_chunks()
    );

    let tail_growth = min_ns("store_read", "tail96_1048576") / min_ns("store_read", "tail96_4096");
    println!("96-point window read at 1,048,576 vs 4,096 points: {tail_growth:.2}x");

    // The floors hold in full mode only; CI's own check is the normalised
    // regression diff against the committed baseline.
    if !smoke() {
        assert!(ingest_pps >= 10e6, "gorilla ingest {:.1}M points/sec < 10M", ingest_pps / 1e6);
        assert!(bpp <= 2.0, "gorilla sealed path {bpp:.3} bytes/point > 2");
        assert!(tail_growth <= 2.0, "window read grows {tail_growth:.2}x with the series, > 2x");
    }
}
