//! End-to-end loopback tests for the serving stack: the bit-identity
//! contract over real TCP for every model family, work-conserving
//! batching + admission control under a gated model, racing first ingests
//! into a new series, registry LRU eviction, and protocol robustness
//! against malformed frames.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evalcore::artifact::{ArtifactKey, ArtifactStore};
use forecast::model::{ForecastError, Forecaster, ModelKind, ALL_MODELS};
use forecast::{build_model, BuildOptions, Profile, StateDict};
use serve::registry::{ModelEntry, ModelSpec, RegistryConfig};
use serve::wire;
use serve::{Client, ModelRegistry, SchedulerConfig, ServeConfig, ServeError, Server};
use tsdata::datasets::{generate, DatasetKind, GenOptions, ALL_DATASETS};
use tsdata::split::{split, SplitSpec};

const INPUT_LEN: usize = 16;
const HORIZON: usize = 4;
const DATA_SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "serve-loopback-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The season the registry will derive for ETTm1 — offline models must
/// be built with the same value or the restored config would differ.
fn ettm1_season() -> Option<usize> {
    ALL_DATASETS
        .iter()
        .find(|d| d.name() == "ETTm1")
        .map(|d| d.samples_per_day() as usize)
        .filter(|&s| s >= 2)
}

fn tiny_split() -> tsdata::split::Split {
    let data = generate(
        DatasetKind::ETTm1,
        GenOptions { len: Some(360), channels: Some(1), seed: DATA_SEED },
    );
    split(&data, SplitSpec::default()).expect("360 points split cleanly")
}

fn fit_and_save(store: &ArtifactStore, kind: ModelKind) -> Box<dyn Forecaster> {
    let s = tiny_split();
    let mut model = build_model(
        kind,
        BuildOptions {
            input_len: INPUT_LEN,
            horizon: HORIZON,
            season: ettm1_season(),
            seed: 40,
            profile: Profile::Fast,
        },
    );
    model.fit(&s.train, &s.val).expect("tiny fit succeeds");
    let key = ArtifactKey {
        dataset: "ETTm1".into(),
        model: kind.name().into(),
        seed: 40,
        profile: "Fast".into(),
        method: None,
        eps_bits: None,
        input_len: INPUT_LEN,
        horizon: HORIZON,
        len: Some(360),
        channels: Some(1),
        data_seed: DATA_SEED,
    };
    store.save(&key, &model.save_state().expect("state export")).expect("artifact save");
    model
}

/// The full served path — artifact store, registry fault-in, TCP, store
/// windowing, batching scheduler — must reproduce offline `predict`
/// bit-for-bit for every model family.
#[test]
fn served_forecasts_are_bit_identical_for_every_model_family() {
    // The serve binary enables telemetry at startup; in-process tests
    // must opt in too or the Prometheus dump comes back empty.
    telemetry::set_enabled(true);
    let dir = temp_dir("identity");
    let store = ArtifactStore::open(&dir).expect("open artifact store");
    let offline: Vec<(ModelKind, Box<dyn Forecaster>)> =
        ALL_MODELS.iter().map(|&k| (k, fit_and_save(&store, k))).collect();

    let registry = ModelRegistry::open(&dir, RegistryConfig::default()).expect("open registry");
    assert_eq!(registry.specs().len(), ALL_MODELS.len(), "one spec per model family");
    let mut server =
        Server::start(ServeConfig::default(), Arc::new(registry)).expect("server starts");
    let addr = server.local_addr();

    let s = tiny_split();
    let test_vals = s.test.target().values();
    let mut client = Client::connect(addr).expect("client connects");
    let points: Vec<(i64, f64)> =
        test_vals.iter().enumerate().map(|(i, &v)| (i as i64 * 60, v)).collect();
    let total = client.ingest(1, 0, 0.0, &points).expect("ingest succeeds");
    assert_eq!(total, points.len() as u64);

    let window = test_vals[test_vals.len() - INPUT_LEN..].to_vec();
    for (kind, model) in &offline {
        let spec = ModelSpec {
            dataset: "ETTm1".into(),
            model: kind.name().into(),
            method: None,
            eps_bits: None,
        };
        let served = client.forecast(&spec, 1).expect("served forecast succeeds");
        let direct =
            model.predict(std::slice::from_ref(&window)).expect("offline predict succeeds");
        assert_eq!(served.len(), HORIZON);
        let served_bits: Vec<u64> = served.iter().map(|v| v.to_bits()).collect();
        let direct_bits: Vec<u64> = direct.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            served_bits,
            direct_bits,
            "{}: served forecast diverged from offline predict",
            kind.name()
        );
    }

    // Compress rides the same stored series through a paper codec.
    let (pts, segments, payload) = client.compress(2, 0.05, 1).expect("compress succeeds");
    assert_eq!(pts, points.len() as u64);
    assert!(segments >= 1);
    assert!(!payload.is_empty());

    // Stats reflect the traffic; the Prometheus dump carries the serve counters.
    let stats = client.stats().expect("stats succeeds");
    assert!(
        stats.contains(&format!("forecast_requests={}", ALL_MODELS.len())),
        "stats must count {} forecasts:\n{stats}",
        ALL_MODELS.len()
    );
    let metrics = client.metrics().expect("metrics succeeds");
    assert!(
        metrics.contains("serve_requests_total"),
        "prometheus dump must contain serve_requests_total:\n{metrics}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forecaster whose `predict` blocks until the test releases a gate —
/// lets the test hold worker threads mid-batch to observe batching and
/// admission control deterministically.
type Gate = Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>;

struct GateModel {
    gate: Gate,
}

impl GateModel {
    fn release(gate: &Gate) {
        let (lock, cv) = &**gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }
}

impl Forecaster for GateModel {
    fn name(&self) -> &'static str {
        "Gate"
    }
    fn input_len(&self) -> usize {
        INPUT_LEN
    }
    fn horizon(&self) -> usize {
        HORIZON
    }
    fn fit(
        &mut self,
        _train: &tsdata::series::MultiSeries,
        _val: &tsdata::series::MultiSeries,
    ) -> Result<(), ForecastError> {
        Ok(())
    }
    fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        Ok((0..HORIZON).map(|i| inputs[0][0] + i as f64).collect())
    }
    fn save_state(&self) -> Result<StateDict, ForecastError> {
        Ok(StateDict::new())
    }
}

fn gate_entry(id: u64) -> (Arc<ModelEntry>, Gate) {
    let gate: Gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let spec =
        ModelSpec { dataset: "ETTm1".into(), model: "Gate".into(), method: None, eps_bits: None };
    let key = ArtifactKey {
        dataset: "ETTm1".into(),
        model: "Gate".into(),
        seed: 0,
        profile: "Fast".into(),
        method: None,
        eps_bits: None,
        input_len: INPUT_LEN,
        horizon: HORIZON,
        len: None,
        channels: None,
        data_seed: 0,
    };
    let entry = Arc::new(ModelEntry {
        spec,
        key,
        model: parking_lot::Mutex::new(
            Box::new(GateModel { gate: Arc::clone(&gate) }) as Box<dyn Forecaster>
        ),
        input_len: INPUT_LEN,
        horizon: HORIZON,
        bytes: 64,
        id,
    });
    (entry, gate)
}

/// Work-conserving batching with one gated worker: the first request
/// holds the worker, the requests sent meanwhile queue behind it and run
/// as one batch, the one that finds every admission slot taken gets the
/// typed Overloaded response, and each admitted request gets the forecast
/// of its own series.
#[test]
fn requests_coalesce_and_overflow_is_rejected_typed() {
    let registry = Arc::new(ModelRegistry::empty(RegistryConfig::default()));
    let (entry, gate) = gate_entry(1);
    registry.insert_direct(Arc::clone(&entry));

    let depth = 4;
    let config = ServeConfig {
        scheduler: SchedulerConfig { queue_depth: depth, max_batch: 64, workers: 1 },
        ..Default::default()
    };
    let mut server = Server::start(config, Arc::clone(&registry)).expect("server starts");
    let addr = server.local_addr();

    // One series per request: series `s` holds `100 s + i` at point `i`,
    // so its 16-point trailing window starts at `100 s + 16`, and a row
    // handed to the wrong requester shows in the values.
    let series: Vec<u64> = (1..=depth as u64 + 1).collect();
    let mut seed_client = Client::connect(addr).expect("connect");
    for &s in &series {
        let points: Vec<(i64, f64)> =
            (0..32).map(|i| (i * 60, (100 * s as i64 + i) as f64)).collect();
        seed_client.ingest(s, 0, 0.0, &points).expect("ingest");
    }
    let expected =
        |s: u64| -> Vec<f64> { (0..HORIZON).map(|i| (100 * s + 16) as f64 + i as f64).collect() };

    let spec =
        ModelSpec { dataset: "ETTm1".into(), model: "Gate".into(), method: None, eps_bits: None };
    let (tx, rx) = std::sync::mpsc::channel();
    let send = |s: u64| {
        let (spec, tx) = (spec.clone(), tx.clone());
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            tx.send((s, c.forecast(&spec, s))).expect("the test receives every reply");
        })
    };

    // The first request takes the only worker and blocks on the gate.
    let mut handles = vec![send(series[0])];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !seed_client.stats().expect("stats").contains("batches=1\n") {
        assert!(Instant::now() < deadline, "the first request never reached the worker");
        std::thread::yield_now();
    }
    // The other `depth - 1` admitted requests queue behind it, and one more
    // overflows the admission bound.
    handles.extend(series[1..].iter().map(|&s| send(s)));
    // No admitted request can finish while the gate is shut, so the first
    // reply is the overflow's.
    match rx.recv().expect("a reply") {
        (_, Err(ServeError::Overloaded { depth: d })) => assert_eq!(d, depth),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    GateModel::release(&gate);
    for h in handles {
        h.join().unwrap();
    }
    drop(tx);
    let replies: Vec<_> = rx.iter().collect();
    assert_eq!(replies.len(), depth);
    for (s, values) in replies {
        assert_eq!(values.expect("admitted forecast completes"), expected(s), "series {s}");
    }

    // The held request ran alone; the queued ones shared the next batch.
    let stats = seed_client.stats().expect("stats");
    assert!(stats.contains("batches=2\n"), "stats:\n{stats}");
    assert!(stats.contains(&format!("batched_jobs={depth}\n")), "stats:\n{stats}");
    assert!(stats.contains("overloaded=1\n"), "stats:\n{stats}");
    server.stop();
}

/// Two connections whose first ingests into the same fresh series race:
/// the one that loses the race to create the series appends to it instead
/// of failing. The clients meet at a spinning barrier before each series;
/// before the fix, runs of this shape saw 11 to 127 of the 2,000 series
/// refuse one client's first point. Each client sends one point per
/// series, so when the later timestamp lands first the other is refused
/// for its cadence, never for the series existing.
#[test]
fn racing_first_ingests_into_a_new_series_both_append() {
    const SERIES: u64 = 2_000;
    let registry = Arc::new(ModelRegistry::empty(RegistryConfig::default()));
    let mut server = Server::start(ServeConfig::default(), registry).expect("server starts");
    let addr = server.local_addr();
    let barrier = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..2i64)
        .map(|client| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let ingest = |s: u64| {
                    barrier.fetch_add(1, Ordering::SeqCst);
                    while barrier.load(Ordering::SeqCst) < 2 * s as usize {
                        std::hint::spin_loop();
                    }
                    c.ingest(s, 0, 0.0, &[(client * 60, 1.0)])
                };
                (1..=SERIES).map(ingest).collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for reply in client.join().expect("client thread") {
            match reply {
                Ok(total) => assert!(total == 1 || total == 2, "total {total}"),
                Err(ServeError::Model(msg)) => assert!(msg.contains("breaks cadence"), "{msg}"),
                Err(e) => panic!("unexpected ingest failure: {e}"),
            }
        }
    }
    let stats = Client::connect(addr).expect("connect").stats().expect("stats");
    assert!(stats.contains(&format!("store_series={SERIES}\n")), "stats:\n{stats}");
    server.stop();
}

/// Registry eviction: a byte budget sized for two models evicts the
/// least-recently-used entry on the third insert, and the evicted spec
/// faults back in from the artifact store on its next request.
#[test]
fn registry_evicts_lru_and_faults_back_in() {
    let dir = temp_dir("lru");
    let store = ArtifactStore::open(&dir).expect("open artifact store");
    let s = tiny_split();
    let mut bytes_per_model = 0usize;
    for dataset in ["ETTm1", "ETTm2", "Solar"] {
        let mut model = build_model(
            ModelKind::DLinear,
            BuildOptions {
                input_len: INPUT_LEN,
                horizon: HORIZON,
                season: None,
                seed: 40,
                profile: Profile::Fast,
            },
        );
        model.fit(&s.train, &s.val).expect("tiny fit");
        let state = model.save_state().expect("state export");
        bytes_per_model = state.entries().map(|(n, t)| n.len() + t.data().len() * 8 + 64).sum();
        let key = ArtifactKey {
            dataset: dataset.into(),
            model: "DLinear".into(),
            seed: 40,
            profile: "Fast".into(),
            method: None,
            eps_bits: None,
            input_len: INPUT_LEN,
            horizon: HORIZON,
            len: Some(360),
            channels: Some(1),
            data_seed: DATA_SEED,
        };
        store.save(&key, &state).expect("artifact save");
    }

    // Budget for ~2.2 models: the third fault-in must evict the LRU.
    let budget = bytes_per_model * 2 + bytes_per_model / 5;
    let registry =
        ModelRegistry::open(&dir, RegistryConfig { budget_bytes: budget }).expect("open");
    let spec = |dataset: &str| ModelSpec {
        dataset: dataset.into(),
        model: "DLinear".into(),
        method: None,
        eps_bits: None,
    };
    registry.get(&spec("ETTm1")).expect("fault in ETTm1");
    registry.get(&spec("ETTm2")).expect("fault in ETTm2");
    assert_eq!(registry.resident_count(), 2);
    // Touch ETTm1 so ETTm2 is the LRU, then overflow the budget.
    registry.get(&spec("ETTm1")).expect("warm hit");
    registry.get(&spec("Solar")).expect("fault in Solar");
    assert_eq!(registry.resident_count(), 2, "third insert must evict the LRU");
    let (_, _, evictions) = registry.stats();
    assert_eq!(evictions, 1);

    // The evicted spec still serves: it faults back in from disk.
    let entry = registry.get(&spec("ETTm2")).expect("evicted spec faults back in");
    assert_eq!(entry.spec.dataset, "ETTm2");
    let (_, misses, _) = registry.stats();
    assert_eq!(misses, 4, "ETTm1, ETTm2, Solar, and the re-fault of ETTm2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol robustness: a malformed payload gets a typed error response
/// (connection stays up), an oversized length prefix drops the
/// connection without allocating, and an unknown model or series is a
/// clean error.
#[test]
fn malformed_and_unknown_requests_fail_cleanly() {
    let registry = Arc::new(ModelRegistry::empty(RegistryConfig::default()));
    let mut server = Server::start(ServeConfig::default(), registry).expect("server starts");
    let addr = server.local_addr();

    // Garbage opcode: served a STATUS_ERROR, connection survives.
    let mut raw = TcpStream::connect(addr).expect("connect");
    wire::write_frame(&mut raw, &[0xEE, 1, 2, 3]).expect("write");
    let resp = wire::read_frame(&mut raw).expect("read").expect("response frame");
    match wire::decode_response(&resp).expect("decodes") {
        wire::Response::Error { message } => assert!(message.contains("opcode")),
        other => panic!("expected Error, got {other:?}"),
    }
    // Same connection still serves a well-formed request.
    wire::write_frame(&mut raw, &wire::encode_request(&wire::Request::Stats)).expect("write");
    let resp = wire::read_frame(&mut raw).expect("read").expect("response frame");
    assert!(matches!(wire::decode_response(&resp).expect("decodes"), wire::Response::Text { .. }));

    // Hostile length prefix: the server closes the connection.
    let mut evil = TcpStream::connect(addr).expect("connect");
    use std::io::{Read, Write};
    evil.write_all(&u32::MAX.to_le_bytes()).expect("write");
    let mut buf = [0u8; 1];
    assert_eq!(evil.read(&mut buf).expect("read"), 0, "connection must be closed");

    // Unknown model / unknown series are typed errors, not hangs.
    let mut client = Client::connect(addr).expect("connect");
    let spec = ModelSpec {
        dataset: "Nowhere".into(),
        model: "DLinear".into(),
        method: None,
        eps_bits: None,
    };
    match client.forecast(&spec, 99) {
        Err(ServeError::Model(msg)) => assert!(msg.contains("unknown model")),
        other => panic!("expected model error, got {other:?}"),
    }
    server.stop();
}
