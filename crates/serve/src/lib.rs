//! # serve — the forecast-serving front end
//!
//! Turns the batch evaluation harness into an online service (DESIGN.md
//! §14): a threaded `std::net` TCP server speaking a small
//! length-prefixed binary protocol ([`wire`]) with `ingest`, `forecast`,
//! `compress`, `stats`, and `metrics` request types.
//!
//! Three subsystems compose it:
//!
//! * [`registry::ModelRegistry`] — a warm in-memory model fleet loaded
//!   from an [`evalcore::artifact::ArtifactStore`] directory, keyed by
//!   `(dataset, model, method, eps)`. Cold keys fault in lazily from the
//!   manifest ([`ArtifactStore::list_keys`]) and the registry evicts
//!   least-recently-used models when its byte budget fills.
//! * [`scheduler::Scheduler`] — the batching heart: a request that finds
//!   an execution slot free runs at once on its own connection thread;
//!   while every slot is busy, requests queue, and a freed slot takes the
//!   oldest queued request together with every queued request for the
//!   same model into one [`forecast::model::Forecaster::predict_batch`]
//!   call (bounded batch, no wait), run by the thread of the request that
//!   heads it. Admission control bounds the jobs in flight — a full
//!   queue rejects with a typed `Overloaded` response instead of growing
//!   memory.
//! * [`server::Server`] — the TCP front end routing requests: `ingest`
//!   appends points into a [`store::TsStore`], `forecast` windows the
//!   last `input_len` points straight off store chunks via
//!   [`tsdata::series::SeriesSource`], decoding only the chunk that holds
//!   them, `compress` streams a series through the paper's error-bounded
//!   codecs.
//!
//! Served forecasts are **bit-identical** to offline
//! [`forecast::model::Forecaster::predict`]: batching stacks windows
//! row-wise and `predict_batch` rows are pinned bitwise to the
//! per-window path (`forecast/tests/batch_identity.rs`), asserted
//! end-to-end by this crate's loopback integration test.
//!
//! [`ArtifactStore::list_keys`]: evalcore::artifact::ArtifactStore::list_keys

mod client;
pub mod registry;
pub mod scheduler;
mod server;
pub mod wire;

pub use client::Client;
pub use registry::ModelRegistry;
pub use scheduler::SchedulerConfig;
pub use server::{ServeConfig, Server};

/// Errors surfaced by the serving path. [`ServeError::Overloaded`] is the
/// admission-control rejection and travels the wire as its own typed
/// response status, so clients can distinguish "shed load, retry later"
/// from a hard failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request queue is full; the request was rejected without
    /// queueing. Carries the configured queue depth for diagnostics.
    Overloaded {
        /// The admission-control bound that was hit.
        depth: usize,
    },
    /// No artifact in the registry's manifest matches the model spec.
    UnknownModel(String),
    /// The series id has never been ingested.
    UnknownSeries(u64),
    /// The series is shorter than the model's input window.
    SeriesTooShort {
        /// Window length the model needs.
        needed: usize,
        /// Points the series holds.
        got: usize,
    },
    /// The store rejected an operation (cadence violation, codec error).
    Store(String),
    /// Model fault-in or prediction failed.
    Model(String),
    /// A malformed wire frame or an I/O failure on the connection.
    Transport(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: request queue at its bound of {depth}")
            }
            ServeError::UnknownModel(spec) => write!(f, "unknown model {spec}"),
            ServeError::UnknownSeries(id) => write!(f, "unknown series #{id}"),
            ServeError::SeriesTooShort { needed, got } => {
                write!(f, "series too short: model needs {needed} points, series has {got}")
            }
            ServeError::Store(msg) => write!(f, "store: {msg}"),
            ServeError::Model(msg) => write!(f, "model: {msg}"),
            ServeError::Transport(msg) => write!(f, "transport: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
