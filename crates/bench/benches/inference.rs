//! Inference throughput bench: windows/sec for every one of the paper's
//! seven forecasters, batched (`predict_batch`, one 64-window matrix)
//! against the legacy per-window `predict` loop, measured head-to-head
//! in the same process on the same fitted models. A `fit` group times
//! one fit per iteration of the two attention models on the same split,
//! so their training speed has a committed row too.
//!
//! Run with `cargo bench --bench inference`; set `BENCH_SMOKE=1` for the
//! CI short mode. Writes `BENCH_inference.json` at the workspace root
//! (committed so throughput regressions show up in review diffs) and
//! asserts per-model speedup floors for batched inference at batch
//! size 64. The floors are tiered to each model family's *measured
//! intrinsic* ceiling on this single-core reference host, because the
//! bit-identity contract (batched == per-window, CI-asserted on grid
//! CSVs) pins both paths to the exact same flop and transcendental
//! sequence — batching can only strip graph/dispatch overhead, never
//! re-associate the math. Profiled ceilings: N-BEATS is overhead
//! dominated per window (~5x available); DLinear's naive moving-average
//! decompose and GRU's sigmoid/tanh gates dominate both paths (~2.4x /
//! ~2x); the seq2seq transformers spend most of a per-window pass in
//! matmul+exp flops both paths share, and per-window `predict` no longer
//! rebuilds positional encodings or per-head node chains, so stacking
//! now measures ~1.0-1.06x.
//!
//! A `calibration/memcpy` row pins the host's raw copy bandwidth so the
//! CI regression check can normalise inference numbers across machines.

use common::{bench_calibration, smoke};
use criterion::{black_box, Criterion, Throughput};
use forecast::model::{Forecaster, ALL_MODELS};
use forecast::{build_model, BuildOptions, ModelKind};
use neural::tensor::Tensor;
use tsdata::datasets::{generate, DatasetKind, GenOptions};
use tsdata::split::{split, Split, SplitSpec};

const INPUT_LEN: usize = 48;
const HORIZON: usize = 12;
const BATCH: usize = 64;

mod common;

/// The ETTm1 recreation the evaluation grid itself runs on.
fn bench_split() -> Split {
    let data =
        generate(DatasetKind::ETTm1, GenOptions { len: Some(1_200), channels: Some(1), seed: 7 });
    split(&data, SplitSpec::default()).expect("1200 points split cleanly")
}

fn fit_model(kind: ModelKind, s: &Split) -> Box<dyn Forecaster> {
    let opts =
        BuildOptions { input_len: INPUT_LEN, horizon: HORIZON, seed: 7, ..BuildOptions::default() };
    let mut model = build_model(kind, opts);
    model.fit(&s.train, &s.val).expect("bench fit succeeds");
    model
}

/// Fit all seven models once, then carve a 64-window eval batch from the
/// test split.
fn fit_models(s: &Split) -> (Vec<Box<dyn Forecaster>>, Vec<Vec<f64>>) {
    let models: Vec<Box<dyn Forecaster>> =
        ALL_MODELS.into_iter().map(|kind| fit_model(kind, s)).collect();

    let test_vals = s.test.target().values();
    let max_start = test_vals.len() - INPUT_LEN;
    let windows: Vec<Vec<f64>> = (0..BATCH)
        .map(|i| {
            let start = (i * 3) % (max_start + 1);
            test_vals[start..start + INPUT_LEN].to_vec()
        })
        .collect();
    (models, windows)
}

fn stage(windows: &[Vec<f64>]) -> Tensor {
    let mut staged = Tensor::zeros(windows.len(), INPUT_LEN);
    for (r, w) in windows.iter().enumerate() {
        staged.data_mut()[r * INPUT_LEN..(r + 1) * INPUT_LEN].copy_from_slice(w);
    }
    staged
}

/// Per-window `predict` loop vs one `predict_batch` call over the same 64
/// windows; both rows share `Throughput::Elements(64)` so reported
/// windows/sec and the speedup ratio are directly comparable.
fn bench_inference(c: &mut Criterion, models: &[Box<dyn Forecaster>], windows: &[Vec<f64>]) {
    let staged = stage(windows);

    let mut group = c.benchmark_group("per_window");
    group.throughput(Throughput::Elements(windows.len() as u64));
    for model in models {
        group.bench_function(model.name(), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for w in windows {
                    let pred = model
                        .predict(std::slice::from_ref(black_box(w)))
                        .expect("per-window predict succeeds");
                    acc ^= pred[0].to_bits();
                }
                acc
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("batched");
    group.throughput(Throughput::Elements(windows.len() as u64));
    for model in models {
        group.bench_function(model.name(), |b| {
            b.iter(|| model.predict_batch(black_box(&staged)).expect("batched predict succeeds"))
        });
    }
    group.finish();
}

/// One fit per iteration of each attention model. The harness's 200 ms
/// budget caps these at three timed samples after one warm-up fit.
fn bench_fit(c: &mut Criterion, s: &Split) {
    let mut group = c.benchmark_group("fit");
    for kind in [ModelKind::Transformer, ModelKind::Informer] {
        group.bench_function(kind.name(), |b| b.iter(|| fit_model(kind, black_box(s))));
    }
    group.finish();
}

fn main() {
    // Smoke mode runs the full-mode workload and sample count (same models,
    // same 64-window batch), so the CI gate compares like with like against
    // the committed baseline: a minimum over fewer samples reads higher.
    let mut criterion = Criterion::default().sample_size(20);

    let s = bench_split();
    let (models, windows) = fit_models(&s);
    bench_inference(&mut criterion, &models, &windows);
    bench_fit(&mut criterion, &s);
    bench_calibration(&mut criterion);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
    criterion.save_json(path).expect("write BENCH_inference.json");
    println!("wrote {path}");

    // Acceptance criterion from the batched-inference PR, checked against
    // the per-window loop measured moments ago in this very process.
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
    for model in &models {
        let speedup = min_ns("per_window", model.name()) / min_ns("batched", model.name());
        println!("{:<12} batched vs per-window: {speedup:.2}x", model.name());
        // Per-family floors, set below the measured ceiling with noise
        // margin (measured on the 1-core reference host; see module doc
        // for why bit-identity caps each family):
        //
        //   N-BEATS      measured ~5x    floor 3.0  (per-window is graph
        //                overhead; batching amortises it across 64 rows)
        //   DLinear      measured ~2.4x  floor 1.5  (O(k·window) moving-
        //                average decompose dominates, shared bit-for-bit
        //                by both paths)
        //   GRU          measured ~2x    floor 1.4  (3 gates x 60 steps
        //                of sigmoid/tanh is a shared transcendental
        //                floor; batching removes per-step param clones)
        //   Transformer/ measured ~1.0-  floor 0.9  (flops+exp parity;
        //   Informer     1.06x           the gate is "stacking must not
        //                LOSE" — pre-chunking it ran 0.5x because the
        //                [64·L, L] score tensors spilled L2)
        //
        // ARIMA/GBoost batching only hoists table/tree reuse and carries
        // no floor. The floors hold in full mode only; CI's gate is the
        // normalised regression diff vs the committed baseline JSON.
        let floor = match model.name() {
            "NBeats" => 3.0,
            "DLinear" => 1.5,
            "GRU" => 1.4,
            "Transformer" | "Informer" => 0.9,
            _ => 0.0,
        };
        if !smoke() && floor > 0.0 {
            assert!(
                speedup >= floor,
                "{} batched speedup {speedup:.2}x < {floor}x floor at batch size {BATCH}",
                model.name()
            );
        }
    }
}
