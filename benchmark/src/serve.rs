//! The serving workloads. Each fits an artifact store from the seed,
//! starts the shipped server with its default configuration in a child
//! process, and drives it over loopback TCP from one generator thread per
//! connection, at most four and at most one per core. `setup_s` is timed on
//! servers started in this process.
//!
//! * `serve-hot` is a closed loop: every thread asks for the same DLinear
//!   forecast on one static series, so every registry lookup hits and
//!   every window read is a cached snapshot.
//! * `serve-mixed` is an open loop: independent senders on a seeded
//!   Poisson schedule ingest, forecast and compress over 24 series and 18
//!   models, with a registry budget that holds less than half the fleet.
//!   Latency counts from the time a request was due. The traffic shape is
//!   synthetic: its rate, mix, ingest size, popularity skew and budget are
//!   assumptions chosen to put every serving layer on the path, not
//!   observations of real traffic.
//!
//! The traced run replays the exact request sequence of the TCP run
//! in-process, calling each layer's public function inside a span, and
//! checks that every replayed reply equals the TCP reply byte for byte.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use compression::{find_bound_violation, CompressedSeries, Method, ERROR_BOUNDS};
use evalcore::artifact::{ArtifactKey, ArtifactStore};
use forecast::{build_model, BuildOptions, Forecaster, ModelKind, Profile};
use neural::tensor::Tensor;
use serve::registry::{ModelRegistry, ModelSpec, RegistryConfig};
use serve::scheduler::{Scheduler, SchedulerConfig};
use serve::wire::{self, Request, Response};
use serve::{Client, ServeConfig, ServeError, Server};
use store::{ChunkCodec, SeriesId, StoreConfig, TsStore};
use tsdata::datasets::{generate, generate_univariate, DatasetKind, GenOptions, ALL_DATASETS};
use tsdata::series::SeriesSource;
use tsdata::split::{split, SplitSpec};

use crate::json;
use crate::spec::{EndToEnd, Layers};
use crate::stats::{self, Rng};
use crate::trace::{self, Recorder, Span};
use crate::Outcome;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve-hot",
            Kind::Mixed => "serve-mixed",
        }
    }

    /// Served models, most popular first: the one hot DLinear, or the 18
    /// `serve-mixed` specs ranked ETTm1 DLinear, ETTm1 NBeats, ETTm1 GRU,
    /// ETTm2 DLinear, and so on.
    fn models(self) -> Vec<(DatasetKind, ModelKind)> {
        match self {
            Kind::Hot => vec![(DatasetKind::ETTm1, ModelKind::DLinear)],
            Kind::Mixed => ALL_DATASETS
                .iter()
                .flat_map(|&d| MIXED_MODELS.iter().map(move |&m| (d, m)))
                .collect(),
        }
    }
}

const INPUT_LEN: usize = 96;
const HORIZON: usize = 24;
/// Points each series holds before the timed phase.
const HISTORY: usize = 512;
/// Points per ingest request.
const INGEST_POINTS: usize = 16;
/// Length of the training series each artifact is fitted on.
const TRAIN_LEN: usize = 1_000;
const MODEL_SEED: u64 = 40;
/// Total open-loop arrival rate of `serve-mixed`, requests per second.
/// This and the other `serve-mixed` shape constants are assumptions.
const MIXED_RATE: f64 = 500.0;
/// Error bound of the lossy-codec series.
const LOSSY_EPS: f64 = 0.05;
/// Registry budget of `serve-mixed`: about 45% of the 18-model fleet.
const MIXED_BUDGET: usize = 512 << 10;
/// Requests before this much of a run has passed are warm-up: they run
/// and are checked, but no statistic counts them.
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups in each of the two blocks, one before and one after the timed
/// phase; `setup_s` is the median of both blocks. About 0.15 s (hot) and
/// 0.6 s (mixed) per block on a 2-core host.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Hot => 100,
        Kind::Mixed => 20,
    }
}
/// An open-loop run whose generator woke later than this at p99 (with
/// the connection idle) did not deliver its schedule: its numbers are
/// invalid, though its outputs may still be correct.
const MAX_LATE_US: f64 = 2_000.0;
/// The served model families of `serve-mixed`.
const MIXED_MODELS: [ModelKind; 3] = [ModelKind::DLinear, ModelKind::NBeats, ModelKind::Gru];
/// Zipf exponent over the 18 `serve-mixed` model specs.
const ZIPF_S: f64 = 1.1;

/// One stored series and the values the benchmark will send for it.
#[derive(Debug, Clone, PartialEq)]
struct SeriesDef {
    id: u64,
    dataset: DatasetKind,
    /// `store::ChunkCodec` wire tag.
    codec: u8,
    eps: f64,
    start: i64,
    interval: i64,
    /// History first, then every ingested block in order.
    values: Vec<f64>,
}

impl SeriesDef {
    fn points(&self, range: std::ops::Range<usize>) -> Vec<(i64, f64)> {
        range.map(|i| (self.start + i as i64 * self.interval, self.values[i])).collect()
    }
}

/// One scheduled request. `due` is its send time after the run starts
/// (open loop only).
#[derive(Debug, Clone, PartialEq)]
struct Op {
    due: Duration,
    request: Request,
}

/// The generated inputs of one serving run.
#[derive(Debug, Clone, PartialEq)]
struct Workload {
    series: Vec<SeriesDef>,
    /// Served models, most popular first.
    models: Vec<(DatasetKind, ModelKind)>,
    /// Per generator thread: its schedule (open loop) or the one request
    /// it repeats (closed loop).
    ops: Vec<Vec<Op>>,
}

fn spec_of(dataset: DatasetKind, model: ModelKind) -> ModelSpec {
    ModelSpec {
        dataset: dataset.name().to_string(),
        model: model.name().to_string(),
        method: None,
        eps_bits: None,
    }
}

fn method_of(tag: u8) -> Method {
    match tag {
        1 => Method::Pmc,
        2 => Method::Swing,
        _ => Method::Sz,
    }
}

/// Generator threads: one per core, at most four, so every thread owns at
/// least one series of every dataset in `serve-mixed`.
fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4)
}

/// `serve-hot`: one Gorilla series of ETTm1 and one DLinear, the same
/// forecast request on every thread.
fn hot_workload(seed: u64, threads: usize) -> Workload {
    let series = make_series(0, DatasetKind::ETTm1, 0, HISTORY, seed);
    let request =
        Request::Forecast { spec: spec_of(DatasetKind::ETTm1, ModelKind::DLinear), series: 0 };
    Workload {
        series: vec![series],
        models: Kind::Hot.models(),
        ops: vec![vec![Op { due: Duration::ZERO, request }]; threads],
    }
}

fn make_series(id: u64, dataset: DatasetKind, codec: u8, len: usize, seed: u64) -> SeriesDef {
    let data_seed = seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let s = generate_univariate(
        dataset,
        GenOptions { len: Some(len), channels: Some(1), seed: data_seed },
    );
    SeriesDef {
        id,
        dataset,
        codec,
        eps: if codec == 0 { 0.0 } else { LOSSY_EPS },
        start: s.start(),
        interval: s.interval(),
        values: s.values().to_vec(),
    }
}

/// What an open-loop request does, before the series values exist.
enum Draw {
    Ingest { series: usize },
    Forecast { model: usize, series: usize },
    Compress { series: usize, method: u8, eps: f64 },
}

/// `serve-mixed`: 24 series (6 datasets × codec tags 0–3) and 18 models
/// (6 datasets × DLinear/NBeats/GRU, Zipf-ranked); per thread a Poisson
/// schedule at `MIXED_RATE / threads` of 50% ingest, 40% forecast and 10%
/// compress, touching only the thread's own series.
fn mixed_workload(seed: u64, threads: usize, seconds: u64) -> Workload {
    let datasets = ALL_DATASETS.len();
    // Series `d * 4 + c` belongs to thread `(d + c) % threads`.
    let owner = |index: usize| (index / 4 + index % 4) % threads;
    let models = Kind::Mixed.models();
    let zipf: Vec<f64> = (1..=models.len())
        .scan(0.0, |acc, rank| {
            *acc += (rank as f64).powf(-ZIPF_S);
            Some(*acc)
        })
        .collect();
    let horizon_s = (WARMUP + Duration::from_secs(seconds)).as_secs_f64();

    let mut draws: Vec<Vec<(f64, Draw)>> = Vec::with_capacity(threads);
    for t in 0..threads {
        let mut rng = Rng::new(seed ^ (t as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let own: Vec<usize> = (0..datasets * 4).filter(|&i| owner(i) == t).collect();
        let own_of = |d: usize| own.iter().copied().filter(move |i| i / 4 == d);
        let gorilla: Vec<usize> = own.iter().copied().filter(|i| i % 4 == 0).collect();
        let mut at = 0.0;
        let mut list = Vec::new();
        loop {
            at += rng.exponential(MIXED_RATE / threads as f64);
            if at >= horizon_s {
                break;
            }
            let u = rng.unit();
            let draw = if u < 0.5 {
                Draw::Ingest { series: own[rng.below(own.len())] }
            } else if u < 0.9 {
                let model = rng.weighted(&zipf);
                let candidates: Vec<usize> = own_of(model / 3).collect();
                Draw::Forecast { model, series: candidates[rng.below(candidates.len())] }
            } else {
                Draw::Compress {
                    series: gorilla[rng.below(gorilla.len())],
                    method: 1 + rng.below(3) as u8,
                    eps: ERROR_BOUNDS[rng.below(ERROR_BOUNDS.len())],
                }
            };
            list.push((at, draw));
        }
        draws.push(list);
    }

    let mut blocks = vec![0usize; datasets * 4];
    for (_, d) in draws.iter().flatten() {
        if let Draw::Ingest { series } = d {
            blocks[*series] += 1;
        }
    }
    let series: Vec<SeriesDef> = (0..datasets * 4)
        .map(|i| {
            let len = HISTORY + INGEST_POINTS * blocks[i];
            make_series(i as u64, ALL_DATASETS[i / 4], (i % 4) as u8, len, seed)
        })
        .collect();

    let mut sent = vec![0usize; series.len()];
    let ops = draws
        .into_iter()
        .map(|list| {
            list.into_iter()
                .map(|(at, d)| {
                    let request = match d {
                        Draw::Ingest { series: i } => {
                            let from = HISTORY + INGEST_POINTS * sent[i];
                            sent[i] += 1;
                            let s = &series[i];
                            Request::Ingest {
                                series: s.id,
                                codec: s.codec,
                                eps: s.eps,
                                points: s.points(from..from + INGEST_POINTS),
                            }
                        }
                        Draw::Forecast { model, series: i } => {
                            let (d, m) = models[model];
                            Request::Forecast { spec: spec_of(d, m), series: i as u64 }
                        }
                        Draw::Compress { series: i, method, eps } => {
                            Request::Compress { method, eps, series: i as u64 }
                        }
                    };
                    Op { due: Duration::from_secs_f64(at), request }
                })
                .collect()
        })
        .collect();
    Workload { series, models, ops }
}

/// A directory for one run's artifacts inside the working directory,
/// removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new(tag: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Fits every served model on the seed's data and saves it as an
/// artifact. Returns the offline models, which the output checks use as
/// the reference.
fn fit_fleet(
    models: &[(DatasetKind, ModelKind)],
    seed: u64,
    dir: &Path,
) -> Result<HashMap<ModelSpec, Box<dyn Forecaster>>, String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let fit = |&(dataset, kind): &(DatasetKind, ModelKind)| -> Result<(ModelSpec, Box<dyn Forecaster>), String> {
        let data = generate(dataset, GenOptions { len: Some(TRAIN_LEN), channels: Some(1), seed });
        let s = split(&data, SplitSpec::default()).map_err(|e| e.to_string())?;
        // The registry rebuilds models with this season, so the offline
        // reference must use it too.
        let season = dataset.samples_per_day() as usize;
        let mut model = build_model(
            kind,
            BuildOptions {
                input_len: INPUT_LEN,
                horizon: HORIZON,
                season: (season >= 2).then_some(season),
                seed: MODEL_SEED,
                profile: Profile::Fast,
            },
        );
        model.fit(&s.train, &s.val).map_err(|e| format!("fitting {}: {e}", kind.name()))?;
        let key = ArtifactKey {
            dataset: dataset.name().to_string(),
            model: kind.name().to_string(),
            seed: MODEL_SEED,
            profile: "Fast".into(),
            method: None,
            eps_bits: None,
            input_len: INPUT_LEN,
            horizon: HORIZON,
            len: Some(TRAIN_LEN),
            channels: Some(1),
            data_seed: seed,
        };
        let state = model.save_state().map_err(|e| e.to_string())?;
        store.save(&key, &state).map_err(|e| e.to_string())?;
        Ok((spec_of(dataset, kind), model))
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = models.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(fit).collect::<Result<Vec<_>, _>>()))
            .collect();
        let mut fleet = HashMap::new();
        for h in handles {
            fleet.extend(h.join().map_err(|_| "a fitting thread panicked".to_string())??);
        }
        Ok(fleet)
    })
}

fn registry_config(kind: Kind) -> RegistryConfig {
    match kind {
        Kind::Hot => RegistryConfig::default(),
        Kind::Mixed => RegistryConfig { budget_bytes: MIXED_BUDGET },
    }
}

/// Opens the registry over the artifacts in `dir`, warms it with every
/// served model the budget holds, and starts the server.
fn open_server(kind: Kind, dir: &Path) -> Result<Server, String> {
    let registry = ModelRegistry::open(dir, registry_config(kind)).map_err(|e| e.to_string())?;
    registry.warm(kind.models().len()).map_err(|e| e.to_string())?;
    Server::start(ServeConfig::default(), Arc::new(registry)).map_err(|e| e.to_string())
}

/// Ingests every series' history over TCP.
fn ingest_history(addr: SocketAddr, w: &Workload) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for s in &w.series {
        let total = client
            .ingest(s.id, s.codec, s.eps, &s.points(0..HISTORY))
            .map_err(|e| format!("ingesting history of series {}: {e}", s.id))?;
        if total != HISTORY as u64 {
            return Err(format!("series {} reports {total} points after its history", s.id));
        }
    }
    Ok(())
}

/// `benchmark serve-child --workload W --dir D`: the server under test, in
/// a process of its own so that its peak memory is the server's alone.
/// Prints `listening ADDR` on stdout once it accepts connections, and
/// serves until a `shutdown` request arrives.
pub fn child_main(args: &[String]) -> ExitCode {
    let (kind, dir) = match args {
        [w, workload, d, dir] if w == "--workload" && d == "--dir" => {
            match [Kind::Hot, Kind::Mixed].into_iter().find(|k| k.name() == workload) {
                Some(kind) => (kind, PathBuf::from(dir)),
                None => return child_usage(),
            }
        }
        _ => return child_usage(),
    };
    telemetry::set_enabled(true);
    let mut server = match open_server(kind, &dir) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("benchmark serve-child: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", server.local_addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }
    server.wait();
    ExitCode::SUCCESS
}

fn child_usage() -> ExitCode {
    eprintln!("usage: benchmark serve-child --workload serve-hot|serve-mixed --dir DIR");
    ExitCode::from(2)
}

/// A running `serve-child` process. Dropping it kills the process and
/// waits for it.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    fn spawn(kind: Kind, dir: &Path) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
        let child = Command::new(exe)
            .arg("serve-child")
            .args(["--workload", kind.name()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the server process: {e}"))?;
        let mut process = ServerProcess { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let mut line = String::new();
        if let Some(out) = process.child.stdout.take() {
            BufReader::new(out).read_line(&mut line).map_err(|e| e.to_string())?;
        }
        process.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("the server process did not start (it printed {line:?})"))?;
        Ok(process)
    }

    /// `VmHWM` of the server process so far, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let mb = stats::peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()));
        if mb > 0.0 {
            Ok(mb)
        } else {
            Err("cannot read the server process's peak memory".into())
        }
    }

    /// Asks the server to shut down and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("stopping the server process: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the server process exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Both fail harmlessly once the process has exited and been reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request as the TCP run saw it.
#[derive(Debug, Clone)]
struct Exchange {
    /// Index into the thread's schedule.
    op: usize,
    timed: bool,
    /// From due time (open loop) or send time (closed loop) to reply.
    latency_us: f64,
    /// From send to reply.
    service_us: f64,
    /// How late the generator sent, when the connection sat idle at the
    /// due time.
    late_us: Option<f64>,
    /// Seconds from the end of warm-up to the reply.
    done_s: f64,
    /// The reply payload; `None` after a transport failure.
    reply: Option<Vec<u8>>,
}

fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Option<Vec<u8>> {
    wire::write_frame(stream, payload).ok()?;
    wire::read_frame(stream).ok()?
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(stream)
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Closed loop: send, wait for the reply, repeat until `end`.
fn closed_loop(addr: SocketAddr, payload: &[u8], start: Instant, end: Instant) -> Vec<Exchange> {
    let warm_end = start + WARMUP;
    let mut out = Vec::new();
    let Some(mut stream) = connect(addr) else {
        return vec![failed_exchange(0, true)];
    };
    sleep_until(start);
    loop {
        let sent = Instant::now();
        if sent >= end {
            return out;
        }
        let reply = exchange(&mut stream, payload);
        let done = Instant::now();
        let failed = reply.is_none();
        let us = (done - sent).as_secs_f64() * 1e6;
        out.push(Exchange {
            op: out.len(),
            timed: sent >= warm_end,
            latency_us: us,
            service_us: us,
            late_us: None,
            done_s: done.saturating_duration_since(warm_end).as_secs_f64(),
            reply,
        });
        if failed {
            return out;
        }
    }
}

fn failed_exchange(op: usize, timed: bool) -> Exchange {
    Exchange {
        op,
        timed,
        latency_us: 0.0,
        service_us: 0.0,
        late_us: None,
        done_s: 0.0,
        reply: None,
    }
}

/// Open loop: send each request at its due time, or as soon as the
/// previous reply arrives when that is later.
fn open_loop(addr: SocketAddr, ops: &[Op], start: Instant) -> Vec<Exchange> {
    let warm_end = start + WARMUP;
    let payloads: Vec<Vec<u8>> = ops.iter().map(|op| wire::encode_request(&op.request)).collect();
    let Some(mut stream) = connect(addr) else {
        return (0..ops.len()).map(|i| failed_exchange(i, ops[i].due >= WARMUP)).collect();
    };
    let mut out = Vec::with_capacity(ops.len());
    for (i, (op, payload)) in ops.iter().zip(&payloads).enumerate() {
        let due = start + op.due;
        let idle = Instant::now() < due;
        sleep_until(due);
        let sent = Instant::now();
        let reply = exchange(&mut stream, payload);
        let done = Instant::now();
        if reply.is_none() {
            out.extend((i..ops.len()).map(|j| failed_exchange(j, ops[j].due >= WARMUP)));
            return out;
        }
        out.push(Exchange {
            op: i,
            timed: op.due >= WARMUP,
            latency_us: (done - due).as_secs_f64() * 1e6,
            service_us: (done - sent).as_secs_f64() * 1e6,
            late_us: idle.then(|| (sent - due).as_secs_f64() * 1e6),
            done_s: done.saturating_duration_since(warm_end).as_secs_f64(),
            reply,
        });
    }
    out
}

/// The TCP phase's raw results, per generator thread.
struct Driven {
    per_thread: Vec<Vec<Exchange>>,
}

fn drive(kind: Kind, addr: SocketAddr, w: &Workload, seconds: u64) -> Driven {
    // Leave every generator time to connect before the clock starts.
    let start = Instant::now() + Duration::from_millis(100);
    let end = start + WARMUP + Duration::from_secs(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = w
            .ops
            .iter()
            .map(|ops| {
                s.spawn(move || match kind {
                    Kind::Hot => {
                        closed_loop(addr, &wire::encode_request(&ops[0].request), start, end)
                    }
                    Kind::Mixed => open_loop(addr, ops, start),
                })
            })
            .collect();
        let per_thread = handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect();
        Driven { per_thread }
    })
}

/// The status byte of a reply: OK, error or overloaded.
fn reply_ok(reply: &Option<Vec<u8>>) -> bool {
    reply.as_ref().and_then(|r| r.first()) == Some(&wire::STATUS_OK)
}

fn is_forecast(op: &Op) -> bool {
    matches!(op.request, Request::Forecast { .. })
}

/// The request of an exchange, which for a closed loop is always the
/// thread's only scheduled one.
fn op_of<'w>(w: &'w Workload, thread: usize, x: &Exchange) -> &'w Op {
    let ops = &w.ops[thread];
    &ops[x.op.min(ops.len() - 1)]
}

pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let threads = generator_threads();
    let prep_started = Instant::now();
    let run_dir = RunDir::new(kind.name())?;
    let w = match kind {
        Kind::Hot => hot_workload(seed, threads),
        Kind::Mixed => mixed_workload(seed, threads, seconds),
    };
    let fleet = fit_fleet(&w.models, seed, &run_dir.0)?;
    let prep_s = prep_started.elapsed().as_secs_f64();

    let mut setups = set_up(kind, &run_dir.0, &w)?;
    let server = ServerProcess::spawn(kind, &run_dir.0)?;
    ingest_history(server.addr, &w)?;
    let driven = drive(kind, server.addr, &w, seconds);
    let peak_rss = server.peak_rss_mb()?;
    let tcp_stats = Client::connect(server.addr).and_then(|mut c| c.stats()).unwrap_or_default();
    server.shutdown()?;
    setups.extend(set_up(kind, &run_dir.0, &w)?);

    let mut outcome = summarize(kind, &w, &driven, stats::median(&setups), peak_rss);
    outcome.info.splice(
        0..0,
        [
            ("prep_s", json::num(prep_s)),
            ("setup_samples", setups.len().to_string()),
            ("threads", threads.to_string()),
        ],
    );
    for key in ["batches", "batched_jobs", "registry_hits", "registry_misses", "registry_evictions"]
    {
        outcome.info.push((key, stat_line(&tcp_stats, key).to_string()));
    }
    outcome.checks.extend(check_replies(kind, &w, &driven, &fleet));
    if traced {
        replay(kind, &w, &driven, &run_dir.0, &mut outcome)?;
    }
    Ok(outcome)
}

/// One block of set-ups in this process, each the set-up a deployment pays
/// before serving: open the registry, warm it, start the server and ingest
/// every history over TCP. Each server stops before the next starts.
fn set_up(kind: Kind, dir: &Path, w: &Workload) -> Result<Vec<f64>, String> {
    (0..setup_reps(kind))
        .map(|_| {
            let started = Instant::now();
            let server = open_server(kind, dir)?;
            ingest_history(server.local_addr(), w)?;
            let elapsed = started.elapsed().as_secs_f64();
            drop(server);
            Ok(elapsed)
        })
        .collect()
}

fn stat_line(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// End-to-end numbers and failure accounting of the TCP phase.
fn summarize(kind: Kind, w: &Workload, d: &Driven, setup_s: f64, peak_rss_mb: f64) -> Outcome {
    let (mut attempted, mut failed, mut last_done) = (0u64, 0u64, 0.0f64);
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut late = Vec::new();
    for (t, xs) in d.per_thread.iter().enumerate() {
        for x in xs.iter().filter(|x| x.timed) {
            attempted += 1;
            if !reply_ok(&x.reply) {
                failed += 1;
                continue;
            }
            last_done = last_done.max(x.done_s);
            let label = match op_of(w, t, x).request {
                Request::Ingest { .. } => "ingest",
                Request::Forecast { .. } => "forecast",
                _ => "compress",
            };
            by_kind.entry(label).or_default().push(x.latency_us);
            late.extend(x.late_us);
        }
    }
    let forecasts = by_kind.get("forecast").cloned().unwrap_or_default();
    let (p50, p99) = stats::p50_p99(&forecasts);
    let completed = attempted - failed;
    let mut info = vec![("forecasts", forecasts.len().to_string())];
    for (label, p50_key, p99_key) in [
        ("ingest", "ingest_p50_us", "ingest_p99_us"),
        ("compress", "compress_p50_us", "compress_p99_us"),
    ] {
        if let Some(lat) = by_kind.get(label) {
            let (p50, p99) = stats::p50_p99(lat);
            info.push((p50_key, json::num(p50)));
            info.push((p99_key, json::num(p99)));
        }
    }
    let mut valid = true;
    if kind == Kind::Mixed {
        let late_p99 = stats::p50_p99(&late).1;
        info.push(("gen_late_p99_us", json::num(late_p99)));
        valid = late_p99 <= MAX_LATE_US;
    }
    Outcome {
        attempted,
        failed,
        checks: Vec::new(),
        valid,
        e2e: EndToEnd {
            setup_s,
            peak_rss_mb,
            throughput_per_s: completed as f64 / last_done.max(f64::MIN_POSITIVE),
            latency_p50_us: p50,
            latency_p99_us: p99,
        },
        layers: None,
        info,
        spans: Vec::new(),
    }
}

/// The offline answer to a forecast: `predict_batch` on the trailing
/// window, as a reply payload.
fn offline_forecast(model: &dyn Forecaster, history: &[f64]) -> Result<Vec<u8>, String> {
    let window = &history[history.len() - INPUT_LEN..];
    let pred = model
        .predict_batch(&Tensor::new(1, INPUT_LEN, window.to_vec()))
        .map_err(|e| e.to_string())?;
    Ok(wire::encode_response(&Response::Forecast { values: pred.data().to_vec() }))
}

/// Output checks of the TCP phase.
fn check_replies(
    kind: Kind,
    w: &Workload,
    d: &Driven,
    fleet: &HashMap<ModelSpec, Box<dyn Forecaster>>,
) -> Vec<(&'static str, bool)> {
    match kind {
        Kind::Hot => {
            let s = &w.series[0];
            let spec = spec_of(s.dataset, ModelKind::DLinear);
            let expected =
                fleet.get(&spec).map(|m| offline_forecast(m.as_ref(), &s.values[..HISTORY]));
            let all_equal = matches!(&expected, Some(Ok(bytes))
                if d.per_thread.iter().flatten().all(|x| x.reply.as_deref() == Some(bytes.as_slice())));
            vec![("forecasts_bitwise", all_equal)]
        }
        Kind::Mixed => check_mixed(w, d, fleet),
    }
}

/// Replays each thread's requests against a benchmark-side store and
/// checks every reply: forecasts bitwise against offline `predict_batch`
/// on the same window, compress payloads within ε of the raw history,
/// ingest totals against the expected count.
fn check_mixed(
    w: &Workload,
    d: &Driven,
    fleet: &HashMap<ModelSpec, Box<dyn Forecaster>>,
) -> Vec<(&'static str, bool)> {
    let (mut forecasts_ok, mut ingests_ok, mut compress_ok) = (true, true, true);
    let store = TsStore::new(StoreConfig::default());
    for s in &w.series {
        let created = ChunkCodec::from_tag(s.codec)
            .map_err(|e| e.to_string())
            .and_then(|c| store.create_series(SeriesId(s.id), c, s.eps).map_err(|e| e.to_string()))
            .and_then(|()| {
                store.append_batch(SeriesId(s.id), s.points(0..HISTORY)).map_err(|e| e.to_string())
            });
        if created.is_err() {
            return vec![("reference_store", false)];
        }
    }
    for (t, xs) in d.per_thread.iter().enumerate() {
        for x in xs {
            let reply = x.reply.as_deref();
            match &w.ops[t][x.op].request {
                Request::Ingest { series, points, .. } => {
                    let id = SeriesId(*series);
                    let total = store
                        .append_batch(id, points.iter().copied())
                        .and_then(|()| store.series_len(id));
                    ingests_ok &= total.is_ok_and(|n| {
                        reply
                            == Some(
                                &wire::encode_response(&Response::Ingested {
                                    total_points: n as u64,
                                })[..],
                            )
                    });
                }
                Request::Forecast { spec, series } => {
                    let history: Option<Vec<f64>> =
                        store.read(SeriesId(*series)).ok().map(|v| v.iter_values().collect());
                    let expected = match (fleet.get(spec), history) {
                        (Some(model), Some(h)) => offline_forecast(model.as_ref(), &h).ok(),
                        _ => None,
                    };
                    forecasts_ok &= expected.is_some() && expected.as_deref() == reply;
                }
                Request::Compress { method, eps, series } => {
                    let len = store.series_len(SeriesId(*series)).unwrap_or(0);
                    let raw = &w.series[*series as usize].values[..len];
                    compress_ok &= reply.is_some_and(|r| compress_reply_ok(r, *method, *eps, raw));
                }
                _ => {}
            }
        }
    }
    vec![
        ("forecasts_bitwise", forecasts_ok),
        ("ingest_totals", ingests_ok),
        ("compress_within_eps", compress_ok),
    ]
}

fn compress_reply_ok(reply: &[u8], method: u8, eps: f64, raw: &[f64]) -> bool {
    let Ok(Response::Compressed { points, segments, payload }) = wire::decode_response(reply)
    else {
        return false;
    };
    let m = method_of(method);
    let frame =
        CompressedSeries { method: m.name(), bytes: payload, num_segments: segments as usize };
    m.compressor().decompress(&frame).is_ok_and(|series| {
        points as usize == raw.len()
            && series.values().len() == raw.len()
            && find_bound_violation(raw, series.values(), eps, 1e-9).is_none()
    })
}

/// The in-process twin of the server: the same layers the request
/// handler calls, each inside a span.
struct Replayer<'a> {
    registry: ModelRegistry,
    store: TsStore,
    scheduler: Scheduler,
    rec: &'a Recorder,
    /// Forecasts whose scheduled result differed from the direct
    /// `predict_batch` on the same window.
    direct_mismatches: AtomicUsize,
}

impl Replayer<'_> {
    fn reply(&self, op: u64, request: &Request) -> Vec<u8> {
        let rec = self.rec;
        rec.span("serve.request", 0, op, |root| {
            let decoded = rec.span("serve.wire_in", root, op, |_| {
                wire::decode_request(&wire::encode_request(request))
            });
            let response = match decoded {
                Ok(req) => self
                    .dispatch(root, op, req)
                    .unwrap_or_else(|e| Response::Error { message: e.to_string() }),
                Err(e) => Response::Error { message: e.to_string() },
            };
            rec.span("serve.wire_out", root, op, |_| {
                let bytes = wire::encode_response(&response);
                std::hint::black_box(wire::decode_response(&bytes)).ok();
                bytes
            })
        })
    }

    fn dispatch(&self, root: u64, op: u64, req: Request) -> Result<Response, ServeError> {
        let (rec, store) = (self.rec, &self.store);
        let store_err = |e: store::StoreError| ServeError::Store(e.to_string());
        match req {
            Request::Ingest { series, points, .. } => {
                let id = SeriesId(series);
                let total = rec.span("store.append", root, op, |_| {
                    store.append_batch(id, points)?;
                    store.series_len(id)
                });
                Ok(Response::Ingested { total_points: total.map_err(store_err)? as u64 })
            }
            Request::Forecast { spec, series } => {
                let entry =
                    rec.span("serve.registry_get", root, op, |_| self.registry.get(&spec))?;
                let window = rec.span("store.window", root, op, |_| {
                    let view = store.read(SeriesId(series))?;
                    let skip = view.len().saturating_sub(entry.input_len);
                    Ok::<Vec<f64>, store::StoreError>(view.iter_values().skip(skip).collect())
                });
                let window = window.map_err(store_err)?;
                let values = rec.span("serve.scheduler", root, op, |_| {
                    self.scheduler.forecast(Arc::clone(&entry), window.clone())
                })?;
                let direct = rec.span("forecast.predict_batch", root, op, |_| {
                    entry.model.lock().predict_batch(&Tensor::new(1, window.len(), window))
                });
                let same = direct.is_ok_and(|t| {
                    t.data().len() == values.len()
                        && t.data().iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits())
                });
                if !same {
                    self.direct_mismatches.fetch_add(1, Relaxed);
                }
                Ok(Response::Forecast { values })
            }
            Request::Compress { method, eps, series } => {
                let view = rec
                    .span("store.read", root, op, |_| store.read(SeriesId(series)))
                    .map_err(store_err)?;
                let compressed = rec.span("compression.compress_source", root, op, |_| {
                    compression::compress_source(&view, method_of(method), eps)
                });
                let compressed = compressed.map_err(|e| ServeError::Store(e.to_string()))?;
                Ok(Response::Compressed {
                    points: view.len() as u64,
                    segments: compressed.num_segments as u32,
                    payload: compressed.bytes,
                })
            }
            _ => Err(ServeError::Transport("unexpected request kind".into())),
        }
    }
}

fn op_id(thread: usize, index: usize) -> u64 {
    ((thread as u64) << 32) | index as u64
}

/// Ids of the timed requests whose scheduled op satisfies `keep`.
fn timed_ops(w: &Workload, d: &Driven, keep: impl Fn(&Op) -> bool) -> HashSet<u64> {
    let mut ids = HashSet::new();
    for (t, xs) in d.per_thread.iter().enumerate() {
        ids.extend(xs.iter().filter(|x| x.timed && keep(op_of(w, t, x))).map(|x| op_id(t, x.op)));
    }
    ids
}

/// Replays the TCP run in-process through each layer's public function,
/// with the same threads, request sequence and (open loop) arrival
/// schedule, and derives the per-layer numbers.
fn replay(
    kind: Kind,
    w: &Workload,
    d: &Driven,
    dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let registry = ModelRegistry::open(dir, registry_config(kind)).map_err(|e| e.to_string())?;
    registry.warm(w.models.len()).map_err(|e| e.to_string())?;
    let store = TsStore::new(StoreConfig::default());
    for s in &w.series {
        let codec = ChunkCodec::from_tag(s.codec).map_err(|e| e.to_string())?;
        store.create_series(SeriesId(s.id), codec, s.eps).map_err(|e| e.to_string())?;
        store.append_batch(SeriesId(s.id), s.points(0..HISTORY)).map_err(|e| e.to_string())?;
    }
    let rec = Recorder::new();
    let r = Replayer {
        registry,
        store,
        scheduler: Scheduler::start(SchedulerConfig::default()),
        rec: &rec,
        direct_mismatches: Default::default(),
    };

    let start = Instant::now() + Duration::from_millis(10);
    let (mut registry_base, mut sched_base) = ((0, 0, 0), (0, 0));
    let mismatches: usize = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .per_thread
            .iter()
            .enumerate()
            .map(|(t, xs)| {
                let r = &r;
                s.spawn(move || {
                    let mut bad = 0;
                    for x in xs {
                        let op = op_of(w, t, x);
                        if kind == Kind::Mixed {
                            sleep_until(start + op.due);
                        }
                        let bytes = r.reply(op_id(t, x.op), &op.request);
                        bad += usize::from(x.reply.as_deref() != Some(bytes.as_slice()));
                    }
                    bad
                })
            })
            .collect();
        if kind == Kind::Mixed {
            sleep_until(start + WARMUP);
        }
        registry_base = r.registry.stats();
        let st = r.scheduler.stats();
        sched_base = (st.batches.load(Relaxed), st.batched_jobs.load(Relaxed));
        handles.into_iter().map(|h| h.join().expect("replay threads do not panic")).sum()
    });
    outcome.checks.push(("replay_bitwise", mismatches == 0));
    let direct = r.direct_mismatches.load(Relaxed);
    outcome.checks.push(("scheduled_equals_direct_predict", direct == 0));

    let (hits, misses, evictions) = r.registry.stats();
    let st = r.scheduler.stats();
    let batches = st.batches.load(Relaxed) - sched_base.0;
    let jobs = st.batched_jobs.load(Relaxed) - sched_base.1;
    drop(r);
    let timed = timed_ops(w, d, |_| true);
    let forecast_ids = timed_ops(w, d, is_forecast);
    let mut spans: Vec<Span> = rec.into_spans();
    spans.retain(|s| timed.contains(&s.op));

    let p = |name: &str| stats::p50_p99(&trace::durations_us(&spans, name));
    let sched = trace::per_op_us(&spans, "serve.scheduler");
    let predict = trace::per_op_us(&spans, "forecast.predict_batch");
    let wait: Vec<f64> =
        sched.iter().map(|(op, s)| s - predict.get(op).copied().unwrap_or(0.0)).collect();
    let wire_in = trace::per_op_us(&spans, "serve.wire_in");
    let wire_out = trace::per_op_us(&spans, "serve.wire_out");
    let wire: Vec<f64> =
        wire_in.iter().map(|(op, a)| a + wire_out.get(op).copied().unwrap_or(0.0)).collect();
    let replay_forecast: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.request" && forecast_ids.contains(&s.op))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let tcp_forecast: Vec<f64> = d
        .per_thread
        .iter()
        .enumerate()
        .flat_map(|(t, xs)| xs.iter().map(move |x| (t, x)))
        .filter(|&(t, x)| forecast_ids.contains(&op_id(t, x.op)) && reply_ok(&x.reply))
        .map(|(_, x)| x.service_us)
        .collect();
    let lookups = (hits - registry_base.0) + (misses - registry_base.1);
    outcome.layers = Some(Layers {
        scheduler_p50_us: p("serve.scheduler").0,
        scheduler_p99_us: p("serve.scheduler").1,
        scheduler_wait_p50_us: stats::p50_p99(&wait).0,
        batch_occupancy: jobs as f64 / batches.max(1) as f64,
        wire_p50_us: stats::p50_p99(&wire).0,
        tcp_residual_p50_us: stats::p50_p99(&tcp_forecast).0 - stats::p50_p99(&replay_forecast).0,
        registry_get_p50_us: p("serve.registry_get").0,
        registry_get_p99_us: p("serve.registry_get").1,
        registry_miss_ratio: (misses - registry_base.1) as f64 / lookups.max(1) as f64,
        registry_evictions: (evictions - registry_base.2) as f64,
        window_p50_us: p("store.window").0,
        window_p99_us: p("store.window").1,
        append_p50_us: p("store.append").0,
        append_p99_us: p("store.append").1,
        compress_source_p50_us: p("compression.compress_source").0,
        compress_source_p99_us: p("compression.compress_source").1,
        predict_batch_p50_us: p("forecast.predict_batch").0,
        coverage: trace::coverage(&spans, "serve.request"),
        overhead: trace::overhead(&spans, "serve.request"),
        ..Layers::default()
    });
    outcome.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_a_function_of_the_seed() {
        let a = mixed_workload(7, 2, 2);
        let b = mixed_workload(7, 2, 2);
        let c = mixed_workload(8, 2, 2);
        assert_eq!(a, b, "the same seed gives the same requests, times and values");
        assert_ne!(a.ops, c.ops, "another seed gives another schedule");
        assert_ne!(a.series, c.series, "another seed gives other series values");
    }

    #[test]
    fn open_loop_schedule_has_the_stated_shape() {
        let w = mixed_workload(3, 2, 4);
        assert_eq!(w.series.len(), 24);
        assert_eq!(w.models.len(), 18);
        let ops: Vec<&Op> = w.ops.iter().flatten().collect();
        // 500 req/s over 5 s, give or take Poisson noise.
        assert!((2_000..3_000).contains(&ops.len()), "{}", ops.len());
        let forecasts = ops.iter().filter(|o| is_forecast(o)).count() as f64 / ops.len() as f64;
        assert!((0.35..0.45).contains(&forecasts), "{forecasts}");
        // Threads own disjoint series.
        let owners: Vec<HashSet<u64>> = w
            .ops
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|o| match &o.request {
                        Request::Ingest { series, .. }
                        | Request::Forecast { series, .. }
                        | Request::Compress { series, .. } => *series,
                        _ => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        assert!(owners[0].is_disjoint(&owners[1]));
        // Each thread's schedule is sorted by due time.
        for ops in &w.ops {
            assert!(ops.windows(2).all(|p| p[0].due <= p[1].due));
        }
    }

    #[test]
    fn ingest_blocks_continue_each_series_in_cadence() {
        let w = mixed_workload(5, 3, 1);
        let mut next: HashMap<u64, usize> = HashMap::new();
        for op in w.ops.iter().flatten() {
            if let Request::Ingest { series, points, .. } = &op.request {
                let s = &w.series[*series as usize];
                let from = *next.entry(*series).or_insert(HISTORY);
                assert_eq!(points, &s.points(from..from + INGEST_POINTS));
                next.insert(*series, from + INGEST_POINTS);
            }
        }
    }
}
