//! # evalcore — the evaluation pipeline
//!
//! Implements the paper's Algorithm 1 ([`scenario`]), the task engine
//! that schedules the evaluation cross-product with per-task fault
//! isolation and is the one entry point per grid operation ([`engine`]),
//! the grid configuration over compressors × error bounds × models ×
//! datasets ([`grid`]), the shared transform/dataset caches behind it
//! ([`cache`]), the versioned model-artifact format and checkpoint store
//! behind `--artifacts` ([`artifact`]), result bookkeeping including
//! partial-failure summaries ([`results`]) and the per-table/figure
//! experiment reproductions ([`experiments`]). Store-backed runs route every
//! transform through the chunked store ([`storeback`], DESIGN.md §12).
//! The engine's workers claim tasks from one shared work queue, with
//! deterministic chaos injection ([`sched`], DESIGN.md §15).

pub mod artifact;
pub mod cache;
pub mod engine;
pub mod experiments;
pub mod grid;
pub mod results;
pub mod scenario;
pub mod sched;
pub mod storeback;

pub use artifact::{decode_state, encode_state};
pub use cache::{GridContext, Subset};
pub use engine::{Engine, ForecastTask, GridReport, GridTask, RetrainTask, TaskCoord, TaskOutcome};
pub use grid::GridConfig;
pub use results::{ForecastRecord, TaskFailure};
pub use scenario::ScenarioOutcome;
