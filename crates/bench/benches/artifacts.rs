//! Checkpoint/resume benchmarks: what a grid cell costs cold (fit the
//! model, checkpoint it) versus warm (load the fit back from the
//! artifact store), plus the raw encode/decode throughput of the
//! artifact codec itself.
//!
//! Run with `cargo bench --bench artifacts`. Besides printing a table,
//! this bench writes a machine-readable summary to
//! `BENCH_artifacts.json` at the workspace root, which is committed so
//! resume-path regressions show up in review diffs. A `calibration/memcpy`
//! row pins the host's raw copy bandwidth, so rows recorded on different
//! hosts or sessions can be compared after normalising by it.

use std::sync::atomic::{AtomicUsize, Ordering};

use common::bench_calibration;
use criterion::{black_box, BenchmarkId, Criterion};
use evalcore::artifact::{decode_state, encode_state, ArtifactStore};
use evalcore::cache::GridContext;
use evalcore::grid::GridConfig;
use forecast::model::ModelKind;
use forecast::{build_model, BuildOptions};
use tsdata::datasets::DatasetKind;

mod common;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bench-artifacts-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Cold vs warm cost of one forecast-grid cell, per model class: the
/// cold path fits and checkpoints, the warm path loads the stored fit.
fn bench_fit_or_load(c: &mut Criterion) {
    let mut cfg = GridConfig::smoke();
    cfg.len = Some(2_000);
    let ctx = GridContext::new(cfg.clone());
    let ds = ctx.try_dataset(DatasetKind::ETTm1).expect("dataset splits");

    let mut group = c.benchmark_group("fit_or_load");
    for kind in [ModelKind::GBoost, ModelKind::DLinear] {
        let opts = BuildOptions {
            input_len: cfg.input_len,
            horizon: cfg.horizon,
            seed: 42,
            ..BuildOptions::default()
        };
        let store_dir = temp_dir(kind.name());
        let store = ArtifactStore::open(&store_dir).expect("store opens");

        group.bench_with_input(BenchmarkId::new("cold", kind.name()), &kind, |bench, &kind| {
            bench.iter(|| {
                let mut model = build_model(kind, opts);
                model.fit(&ds.split.train, &ds.split.val).expect("fits");
                let state = model.save_state().expect("exports");
                store.save(black_box(&key(kind)), &state).expect("checkpoints");
            })
        });

        // Seed the store once, then measure the steady-state warm path:
        // probe + decode + import into a freshly built model.
        let mut model = build_model(kind, opts);
        model.fit(&ds.split.train, &ds.split.val).expect("fits");
        store.save(&key(kind), &model.save_state().expect("exports")).expect("seeds store");
        group.bench_with_input(BenchmarkId::new("warm", kind.name()), &kind, |bench, &kind| {
            bench.iter(|| {
                let state = store
                    .load(black_box(&key(kind)))
                    .expect("store reads")
                    .expect("artifact present");
                let mut model = build_model(kind, opts);
                model.load_state(&state).expect("imports");
                model
            })
        });

        let _ = std::fs::remove_dir_all(&store_dir);
    }
    group.finish();
}

fn key(kind: ModelKind) -> evalcore::artifact::ArtifactKey {
    evalcore::artifact::ArtifactKey {
        dataset: "ETTm1".to_string(),
        model: kind.name().to_string(),
        seed: 42,
        profile: "Fast".to_string(),
        method: None,
        eps_bits: None,
        input_len: 48,
        horizon: 12,
        len: Some(2_000),
        channels: None,
        data_seed: 42,
    }
}

/// Raw codec throughput on a real model state (GBoost: a few hundred KB
/// of tree parameters).
fn bench_codec(c: &mut Criterion) {
    let mut cfg = GridConfig::smoke();
    cfg.len = Some(2_000);
    let ctx = GridContext::new(cfg.clone());
    let ds = ctx.try_dataset(DatasetKind::ETTm1).expect("dataset splits");
    let opts = BuildOptions {
        input_len: cfg.input_len,
        horizon: cfg.horizon,
        seed: 42,
        ..BuildOptions::default()
    };
    let mut model = build_model(ModelKind::GBoost, opts);
    model.fit(&ds.split.train, &ds.split.val).expect("fits");
    let state = model.save_state().expect("exports");
    let bytes = encode_state(&state).expect("encodes");

    let mut group = c.benchmark_group("artifact_codec");
    group.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |bench| bench.iter(|| encode_state(black_box(&state))));
    group.bench_function("decode", |bench| bench.iter(|| decode_state(black_box(&bytes))));
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_fit_or_load(&mut criterion);
    bench_codec(&mut criterion);
    bench_calibration(&mut criterion);

    // cargo bench runs with the package dir as cwd; anchor the summary at
    // the workspace root so it lands next to the sources it measures.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_artifacts.json");
    criterion.save_json(path).expect("write BENCH_artifacts.json");
    println!("wrote {path}");

    // Guardrail mirroring the point of checkpointing: loading a stored
    // fit must be meaningfully cheaper than refitting. Min-time is the
    // robust estimator on a shared/noisy host.
    let records = criterion.records();
    let min_ns = |id: &str| {
        records
            .iter()
            .find(|r| r.group == "fit_or_load" && r.id == id)
            .map(|r| r.min_ns)
            .expect("record present")
    };
    for kind in ["GBoost", "DLinear"] {
        let speedup = min_ns(&format!("cold/{kind}")) / min_ns(&format!("warm/{kind}"));
        println!("warm vs cold ({kind}): {speedup:.1}x");
        assert!(speedup >= 2.0, "{kind}: warm load speedup {speedup:.1}x < 2x");
    }
}
