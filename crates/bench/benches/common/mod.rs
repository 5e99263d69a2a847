//! Helpers shared by the benches that record a committed `BENCH_*.json`.
//! Each bench pulls this file in with `mod common;`, so the `bench`
//! library itself needs no `criterion` dependency.

use criterion::{black_box, Criterion, Throughput};

/// CI short mode (`BENCH_SMOKE=1`): same workloads as full mode and no
/// in-process floors. The benches CI gates on timings (codecs, inference,
/// store) keep the full sample count; the others trim samples or requests.
// `artifacts` compiles this module but has no short mode.
#[allow(dead_code)]
pub fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The `calibration/memcpy` row: raw copy bandwidth of this host over
/// 1 MiB, the unit CI normalises against so a slower runner does not read
/// as a regression.
// `serving` compiles this module but records no calibration row.
#[allow(dead_code)]
pub fn bench_calibration(c: &mut Criterion) {
    let len = 1 << 20;
    let src = vec![0xA5u8; len];
    let mut group = c.benchmark_group("calibration");
    group.throughput(Throughput::Bytes(len as u64));
    group.bench_function("memcpy", |b| b.iter(|| black_box(&src).to_vec()));
    group.finish();
}
