//! The TCP front end: accept loop, connection handlers, request routing.
//!
//! One detached handler thread per connection reads frames in a loop and
//! routes them:
//!
//! * `ingest` appends points into the server's [`TsStore`], creating the
//!   series with the requested chunk codec on first touch;
//! * `forecast` resolves the model through the warm registry, windows
//!   the last `input_len` points straight off store chunks (the
//!   [`SeriesSource`] read path, which decodes only the chunk holding
//!   them), and submits to the batching scheduler, which runs the batch
//!   on this connection's thread whenever an execution slot is free;
//! * `compress` streams the stored series through one of the paper's
//!   error-bounded codecs;
//! * `stats` returns the server's own counters as key=value text and
//!   `metrics` returns the process-wide Prometheus dump.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`Server::stop`]) raises a flag and nudges the accept loop awake
//! with a loopback connection.
//!
//! [`SeriesSource`]: tsdata::series::SeriesSource

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use compression::Method;
use store::{ChunkCodec, SeriesId, StoreConfig, StoreError, TsStore};
use telemetry::{counter_add, observe, secs};
use tsdata::series::SeriesSource;

use crate::registry::ModelRegistry;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::wire::{
    self, Request, Response, OP_COMPRESS, OP_FORECAST, OP_INGEST, OP_METRICS, OP_SHUTDOWN, OP_STATS,
};
use crate::ServeError;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks a free port; [`Server::local_addr`]
    /// reports the resolved one.
    pub addr: String,
    /// Batching / admission knobs.
    pub scheduler: SchedulerConfig,
    /// Store sizing for ingested series.
    pub store: StoreConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

/// Per-request-type counters for the `stats` response (independent of
/// the telemetry registry, so they report even with telemetry disabled).
#[derive(Default)]
struct RequestStats {
    ingest: AtomicU64,
    forecast: AtomicU64,
    compress: AtomicU64,
    stats: AtomicU64,
    metrics: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
}

struct Inner {
    registry: Arc<ModelRegistry>,
    scheduler: Scheduler,
    store: TsStore,
    requests: RequestStats,
    shutdown: AtomicBool,
    listen_addr: SocketAddr,
}

/// A running server. Dropping it stops the accept loop.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    pub fn start(config: ServeConfig, registry: Arc<ModelRegistry>) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Transport(format!("bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr().map_err(|e| ServeError::Transport(e.to_string()))?;
        let inner = Arc::new(Inner {
            registry,
            scheduler: Scheduler::start(config.scheduler),
            store: TsStore::new(config.store),
            requests: RequestStats::default(),
            shutdown: AtomicBool::new(false),
            listen_addr: addr,
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))
            .map_err(|e| ServeError::Transport(e.to_string()))?;
        Ok(Server { inner, addr, accept_thread: Some(accept_thread) })
    }

    /// The resolved bind address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request stops the accept loop (the
    /// serve binary's main-thread parking spot).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Signals shutdown and joins the accept loop. In-flight connections
    /// finish their current request and close on their next read.
    pub fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let conn_inner = Arc::clone(&inner);
        // Detached: the handler exits when the peer disconnects or sends
        // a malformed frame.
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || handle_connection(stream, conn_inner));
    }
}

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => std::io::BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = std::io::BufWriter::new(stream);
    loop {
        let payload = match wire::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(_) => return,   // oversized/hostile frame: drop the connection
        };
        let (op, response) = match wire::decode_request(&payload) {
            Ok(req) => {
                let op = opcode_of(&req);
                (op, dispatch(&inner, req))
            }
            Err(e) => {
                inner.requests.errors.fetch_add(1, Ordering::Relaxed);
                counter_add(
                    "serve_requests_total",
                    &[("type", "malformed"), ("status", "error")],
                    1,
                );
                (0, Response::Error { message: e.to_string() })
            }
        };
        let bytes = wire::encode_response(&response);
        if wire::write_frame(&mut writer, &bytes).is_err() {
            return;
        }
        if op == OP_SHUTDOWN {
            inner.shutdown.store(true, Ordering::SeqCst);
            // Nudge the blocking accept() awake so it observes the flag.
            let _ = TcpStream::connect(inner.listen_addr);
            return;
        }
    }
}

fn opcode_of(req: &Request) -> u8 {
    match req {
        Request::Ingest { .. } => OP_INGEST,
        Request::Forecast { .. } => OP_FORECAST,
        Request::Compress { .. } => OP_COMPRESS,
        Request::Stats => OP_STATS,
        Request::Metrics => OP_METRICS,
        Request::Shutdown => OP_SHUTDOWN,
    }
}

fn dispatch(inner: &Inner, req: Request) -> Response {
    let kind = match req {
        Request::Ingest { .. } => "ingest",
        Request::Forecast { .. } => "forecast",
        Request::Compress { .. } => "compress",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    };
    let started = Instant::now();
    let result = match req {
        Request::Ingest { series, codec, eps, points } => {
            inner.requests.ingest.fetch_add(1, Ordering::Relaxed);
            handle_ingest(inner, series, codec, eps, points)
        }
        Request::Forecast { spec, series } => {
            inner.requests.forecast.fetch_add(1, Ordering::Relaxed);
            handle_forecast(inner, &spec, series)
        }
        Request::Compress { method, eps, series } => {
            inner.requests.compress.fetch_add(1, Ordering::Relaxed);
            handle_compress(inner, method, eps, series)
        }
        Request::Stats => {
            inner.requests.stats.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Text { text: stats_text(inner) })
        }
        Request::Metrics => {
            inner.requests.metrics.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Text {
                text: telemetry::export::prometheus(&telemetry::global().metrics().snapshot()),
            })
        }
        Request::Shutdown => Ok(Response::ShutdownAck),
    };
    observe("serve_request_seconds", &[("type", kind)], secs(started.elapsed()));
    match result {
        Ok(resp) => {
            counter_add("serve_requests_total", &[("type", kind), ("status", "ok")], 1);
            resp
        }
        Err(ServeError::Overloaded { depth }) => {
            inner.requests.overloaded.fetch_add(1, Ordering::Relaxed);
            counter_add("serve_requests_total", &[("type", kind), ("status", "overloaded")], 1);
            Response::Overloaded { depth: depth as u32 }
        }
        Err(e) => {
            inner.requests.errors.fetch_add(1, Ordering::Relaxed);
            counter_add("serve_requests_total", &[("type", kind), ("status", "error")], 1);
            Response::Error { message: e.to_string() }
        }
    }
}

fn handle_ingest(
    inner: &Inner,
    series: u64,
    codec_tag: u8,
    eps: f64,
    points: Vec<(i64, f64)>,
) -> Result<Response, ServeError> {
    let id = SeriesId(series);
    if inner.store.series_len(id).is_err() {
        let codec =
            ChunkCodec::from_tag(codec_tag).map_err(|e| ServeError::Store(e.to_string()))?;
        match inner.store.create_series(id, codec, eps) {
            // Another connection created the series since the probe.
            Ok(()) | Err(StoreError::DuplicateSeries(_)) => {}
            Err(e) => return Err(ServeError::Store(e.to_string())),
        }
    }
    let appended = points.len();
    inner.store.append_batch(id, points).map_err(|e| ServeError::Store(e.to_string()))?;
    let total = inner.store.series_len(id).map_err(|e| ServeError::Store(e.to_string()))?;
    counter_add("serve_ingested_points_total", &[], appended as u64);
    Ok(Response::Ingested { total_points: total as u64 })
}

fn handle_forecast(
    inner: &Inner,
    spec: &crate::registry::ModelSpec,
    series: u64,
) -> Result<Response, ServeError> {
    let entry = inner.registry.get(spec)?;
    let id = SeriesId(series);
    let view = inner.store.read(id).map_err(|_| ServeError::UnknownSeries(series))?;
    let len = view.len();
    if len < entry.input_len {
        return Err(ServeError::SeriesTooShort { needed: entry.input_len, got: len });
    }
    // The trailing window: `skip` steps over whole chunks undecoded, so
    // this decodes at most the one chunk holding the window (none when
    // the window lies in the open chunk, whose values the store caches).
    let window: Vec<f64> = view.iter_values().skip(len - entry.input_len).collect();
    let values = inner.scheduler.forecast(entry, window)?;
    Ok(Response::Forecast { values })
}

fn handle_compress(
    inner: &Inner,
    method_tag: u8,
    eps: f64,
    series: u64,
) -> Result<Response, ServeError> {
    let method = match method_tag {
        1 => Method::Pmc,
        2 => Method::Swing,
        3 => Method::Sz,
        other => return Err(ServeError::Store(format!("unknown compress method tag {other}"))),
    };
    let id = SeriesId(series);
    let view = inner.store.read(id).map_err(|_| ServeError::UnknownSeries(series))?;
    let compressed = compression::compress_source(&view, method, eps)
        .map_err(|e| ServeError::Store(e.to_string()))?;
    Ok(Response::Compressed {
        points: view.len() as u64,
        segments: compressed.num_segments as u32,
        payload: compressed.bytes,
    })
}

fn stats_text(inner: &Inner) -> String {
    let r = &inner.requests;
    let (hits, misses, evictions) = inner.registry.stats();
    let s = inner.scheduler.stats();
    let total = r.ingest.load(Ordering::Relaxed)
        + r.forecast.load(Ordering::Relaxed)
        + r.compress.load(Ordering::Relaxed)
        + r.stats.load(Ordering::Relaxed)
        + r.metrics.load(Ordering::Relaxed);
    let mut out = String::new();
    let mut line = |k: &str, v: u64| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
        out.push('\n');
    };
    line("requests_total", total);
    line("ingest_requests", r.ingest.load(Ordering::Relaxed));
    line("forecast_requests", r.forecast.load(Ordering::Relaxed));
    line("compress_requests", r.compress.load(Ordering::Relaxed));
    line("errors", r.errors.load(Ordering::Relaxed));
    line("overloaded", r.overloaded.load(Ordering::Relaxed));
    line("batches", s.batches.load(Ordering::Relaxed));
    line("batched_jobs", s.batched_jobs.load(Ordering::Relaxed));
    line("scheduler_rejected", s.rejected.load(Ordering::Relaxed));
    line("registry_hits", hits);
    line("registry_misses", misses);
    line("registry_evictions", evictions);
    line("registry_resident_models", inner.registry.resident_count() as u64);
    line("registry_resident_bytes", inner.registry.resident_bytes() as u64);
    line("store_series", inner.store.num_series() as u64);
    out
}
