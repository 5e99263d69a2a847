//! Closed-loop serving load generator: end-to-end request latency and
//! throughput of the `serve` front end over loopback TCP, at several
//! client concurrency levels, plus the batch occupancy the batching
//! scheduler achieves under that load.
//!
//! Each level starts a fresh in-process server (artifact store →
//! registry → scheduler → TCP) at the shipped defaults,
//! `ServeConfig::default()`, then `c` closed-loop clients each fire `N`
//! forecast requests back-to-back and record per-request latency.
//! Per-request percentiles don't fit criterion's mean-per-iteration
//! model, so this bench writes its own records to `BENCH_serving.json`
//! (committed, like every BENCH_*.json, so regressions show up in
//! review diffs).
//!
//! Run with `cargo bench --bench serving`; set `BENCH_SMOKE=1` for the
//! CI short mode. Occupancy is printed and recorded, not asserted: a
//! request runs on its own connection thread whenever one of the 2
//! execution slots is free, so how often requests queue and coalesce
//! depends on the host's timing. The scheduler's unit tests and the
//! loopback test pin coalescing deterministically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use common::smoke;
use evalcore::artifact::{ArtifactKey, ArtifactStore};
use forecast::{build_model, BuildOptions, ModelKind, Profile};
use serve::registry::{ModelSpec, RegistryConfig};
use serve::{Client, ModelRegistry, ServeConfig, Server};
use tsdata::datasets::{generate, DatasetKind, GenOptions};
use tsdata::split::{split, SplitSpec};

const INPUT_LEN: usize = 16;
const HORIZON: usize = 4;
const SEED: u64 = 40;
const DATA_SEED: u64 = 7;
const SERIES: u64 = 1;

mod common;

fn temp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bench-serving-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Fits one DLinear and saves it into a fresh artifact store; returns
/// the store directory and the test-subset values to ingest.
fn prepare_artifacts() -> (PathBuf, Vec<f64>) {
    let data = generate(
        DatasetKind::ETTm1,
        GenOptions { len: Some(360), channels: Some(1), seed: DATA_SEED },
    );
    let s = split(&data, SplitSpec::default()).expect("360 points split cleanly");
    let mut model = build_model(
        ModelKind::DLinear,
        BuildOptions {
            input_len: INPUT_LEN,
            horizon: HORIZON,
            season: None,
            seed: SEED,
            profile: Profile::Fast,
        },
    );
    model.fit(&s.train, &s.val).expect("tiny fit succeeds");
    let key = ArtifactKey {
        dataset: "ETTm1".into(),
        model: "DLinear".into(),
        seed: SEED,
        profile: "Fast".into(),
        method: None,
        eps_bits: None,
        input_len: INPUT_LEN,
        horizon: HORIZON,
        len: Some(360),
        channels: Some(1),
        data_seed: DATA_SEED,
    };
    let dir = temp_dir();
    let store = ArtifactStore::open(&dir).expect("open artifact store");
    store.save(&key, &model.save_state().expect("state export")).expect("artifact save");
    (dir, s.test.target().values().to_vec())
}

struct LevelResult {
    concurrency: usize,
    requests: usize,
    wall: Duration,
    p50_ns: u64,
    p99_ns: u64,
    batches: u64,
    batched_jobs: u64,
}

impl LevelResult {
    fn reqs_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }

    fn occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    assert!(!sorted_ns.is_empty());
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank]
}

fn stat_line(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("stats text missing {key}:\n{stats}"))
}

/// One closed-loop level: `concurrency` clients, `per_client` requests
/// each, against a fresh server.
fn run_level(
    artifacts: &std::path::Path,
    test_vals: &[f64],
    concurrency: usize,
    per_client: usize,
) -> LevelResult {
    let registry =
        Arc::new(ModelRegistry::open(artifacts, RegistryConfig::default()).expect("open registry"));
    registry.warm(1).expect("warm the model");
    let mut server = Server::start(ServeConfig::default(), registry).expect("server starts");
    let addr = server.local_addr();

    let mut seed_client = Client::connect(addr).expect("connect");
    let points: Vec<(i64, f64)> =
        test_vals.iter().enumerate().map(|(i, &v)| (i as i64 * 60, v)).collect();
    seed_client.ingest(SERIES, 0, 0.0, &points).expect("ingest");
    let spec = ModelSpec {
        dataset: "ETTm1".into(),
        model: "DLinear".into(),
        method: None,
        eps_bits: None,
    };
    // Warm the whole path (registry hit, scheduler, store window) once.
    seed_client.forecast(&spec, SERIES).expect("warm-up forecast");
    let warmup_stats = seed_client.stats().expect("stats");
    let base_batches = stat_line(&warmup_stats, "batches");
    let base_jobs = stat_line(&warmup_stats, "batched_jobs");

    let barrier = Arc::new(Barrier::new(concurrency + 1));
    let mut handles = Vec::new();
    for _ in 0..concurrency {
        let barrier = Arc::clone(&barrier);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            barrier.wait();
            let mut lat = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                let t = Instant::now();
                let values = client.forecast(&spec, SERIES).expect("forecast");
                lat.push(t.elapsed().as_nanos() as u64);
                assert_eq!(values.len(), HORIZON);
            }
            lat
        }));
    }
    barrier.wait();
    let started = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(concurrency * per_client);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall = started.elapsed();

    let stats = seed_client.stats().expect("stats");
    let result = LevelResult {
        concurrency,
        requests: latencies.len(),
        wall,
        p50_ns: {
            latencies.sort_unstable();
            percentile(&latencies, 0.50)
        },
        p99_ns: percentile(&latencies, 0.99),
        batches: stat_line(&stats, "batches") - base_batches,
        batched_jobs: stat_line(&stats, "batched_jobs") - base_jobs,
    };
    server.stop();
    result
}

fn main() {
    let per_client = if smoke() { 50 } else { 500 };
    let (artifacts, test_vals) = prepare_artifacts();

    let mut results = Vec::new();
    for concurrency in [1usize, 2, 4, 8] {
        let r = run_level(&artifacts, &test_vals, concurrency, per_client);
        println!(
            "c{}: {} requests in {:.3}s = {:.0} req/s, p50 {:.1}us, p99 {:.1}us, \
             occupancy {:.2} ({} jobs / {} batches)",
            r.concurrency,
            r.requests,
            r.wall.as_secs_f64(),
            r.reqs_per_sec(),
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.occupancy(),
            r.batched_jobs,
            r.batches,
        );
        results.push(r);
    }

    let mut json = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"group\": \"serving_closed_loop\", \"id\": \"c{}\", \"concurrency\": {}, \
             \"requests\": {}, \"reqs_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"batches\": {}, \"batched_jobs\": {}, \"mean_batch_occupancy\": {:.3}}}{sep}\n",
            r.concurrency,
            r.concurrency,
            r.requests,
            r.reqs_per_sec(),
            r.p50_ns,
            r.p99_ns,
            r.batches,
            r.batched_jobs,
            r.occupancy(),
        ));
    }
    json.push_str("]\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, json).expect("write BENCH_serving.json");
    println!("wrote {path}");

    let _ = std::fs::remove_dir_all(&artifacts);
}
