//! The task engine: typed task descriptors, a fault-isolated scheduler,
//! and structured per-task outcomes for the evaluation grid.
//!
//! The paper's evaluation is a cross-product (compressor × ε × dataset ×
//! model × seed, §3). Older revisions executed it as flat index loops
//! where one panicking task aborted the whole grid; the engine instead
//! wraps every task in [`std::panic::catch_unwind`] and reports a
//! [`TaskOutcome`] per task — `Ok(record)`, `Failed(ScenarioError)`, or
//! `Panicked(message)` — so a partial grid still produces a report.
//!
//! Scheduling is delegated to the work queue in [`crate::sched`]: the
//! task list is known up front, so workers claim task indices from one
//! shared cursor over a dispatch order — the first task of each dataset,
//! then the rest in task order ([`Engine::run_with_stats`] gives the
//! reason). Properties the engine guarantees:
//!
//! * **Fault isolation** — a panic or error in one task never takes down
//!   a worker or another task; the worker traps it and moves on. The
//!   completion callback is trapped too: a panicking [`on_task_done`]
//!   callback is logged and counted, never fatal.
//! * **Deterministic assembly** — outcomes are returned in task order
//!   regardless of thread count, dispatch order, or chaos schedule, so
//!   results are byte-identical across `threads = 1` and `threads = N`.
//! * **Progress** — a per-task completion callback
//!   ([`Engine::on_task_done`]) is the hook observability layers (and the
//!   `repro` progress display) plug into.
//!
//! A seeded or scripted [`ChaosSchedule`] ([`Engine::chaos_schedule`],
//! [`GridConfig::chaos_seed`]) injects worker kills, stalls, slow
//! workers, and callback panics at deterministic task indices; the
//! invariants above hold under every schedule (the chaos suite in
//! `crates/core/tests/engine_chaos.rs` proves it).
//!
//! [`on_task_done`]: Engine::on_task_done
//!
//! Tasks address the grid through the shared [`GridContext`], so the
//! exactly-once dataset/transform caching of [`crate::cache`] is
//! preserved: the engine schedules, the context shares.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use compression::codec::PeblcCompressor;
use compression::{Gorilla, Method};
use forecast::model::ModelKind;
use tsdata::datasets::DatasetKind;
use tsdata::metrics::{compression_ratio, nrmse, rmse};
use tsdata::scaler::StandardScaler;
use tsdata::split::make_windows;

use crate::cache::{GridContext, Subset};
use crate::grid::GridConfig;
use crate::results::{CompressionRecord, ForecastRecord, TaskFailure};
use crate::scenario::{
    score_scenario_with, score_transformed, score_windows, ScenarioError, ScenarioOutcome,
};
use crate::sched::{self, ChaosSchedule, RunStats};

/// Grid coordinates identifying one task. Fields that do not apply to a
/// task family are `None` (e.g. a [`CompressionTask`] has no model/seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCoord {
    /// Dataset the task operates on.
    pub dataset: DatasetKind,
    /// Lossy method (`None` for per-dataset tasks like the Gorilla
    /// baseline and the forecast tasks, which span all methods).
    pub method: Option<Method>,
    /// Error bound.
    pub epsilon: Option<f64>,
    /// Forecasting model.
    pub model: Option<ModelKind>,
    /// Random seed.
    pub seed: Option<u64>,
}

impl TaskCoord {
    /// A coordinate carrying only a dataset.
    pub fn dataset(dataset: DatasetKind) -> Self {
        TaskCoord { dataset, method: None, epsilon: None, model: None, seed: None }
    }
}

impl std::fmt::Display for TaskCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.dataset.name())?;
        if let Some(m) = self.method {
            write!(f, "/{}", m.name())?;
        }
        if let Some(e) = self.epsilon {
            write!(f, "@{e}")?;
        }
        if let Some(m) = self.model {
            write!(f, " model={}", m.name())?;
        }
        if let Some(s) = self.seed {
            write!(f, " seed={s}")?;
        }
        Ok(())
    }
}

/// The structured result of one task.
#[derive(Debug)]
pub enum TaskOutcome<R> {
    /// The task produced its record(s).
    Ok(R),
    /// The task returned an error (bad split, codec failure, ...).
    Failed(ScenarioError),
    /// The task panicked; the message is the panic payload.
    Panicked(String),
}

impl<R> TaskOutcome<R> {
    /// The completion status (outcome without the payload).
    fn status(&self) -> TaskStatus {
        match self {
            TaskOutcome::Ok(_) => TaskStatus::Ok,
            TaskOutcome::Failed(_) => TaskStatus::Failed,
            TaskOutcome::Panicked(_) => TaskStatus::Panicked,
        }
    }

    /// The record, if the task succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the task succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }
}

/// Completion status of a task, without its payload ([`TaskEvent`]s carry
/// this to keep the progress callback cheap and `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Completed with a record.
    Ok,
    /// Completed with an error.
    Failed,
    /// Panicked.
    Panicked,
}

/// One per-task completion notification delivered to
/// [`Engine::on_task_done`].
///
/// Two orderings coexist because workers run concurrently and the first
/// task of each dataset is dispatched early: `index` is **task order**
/// (the task's position in the submitted list — stable across runs and
/// thread counts), while `seq` is **completion order** (the position of
/// this event among all events of the run — schedule-dependent).
/// Progress displays should render `seq + 1` of `total` done; anything
/// keyed to *which* task finished must use `index`/`coord`.
#[derive(Debug, Clone, Copy)]
pub struct TaskEvent {
    /// Index of the completed task in the submitted task list (task
    /// order; identifies the task, not the pace of the run).
    pub index: usize,
    /// Completion sequence number: this is the `seq`-th task to finish
    /// (0-based, dense, schedule-dependent).
    pub seq: usize,
    /// Total number of tasks in the run.
    pub total: usize,
    /// The task's grid coordinates.
    pub coord: TaskCoord,
    /// How the task completed.
    pub status: TaskStatus,
}

/// A typed, schedulable unit of grid work. Implementations carry their
/// own coordinates and run against the shared [`GridContext`]; the
/// engine supplies scheduling, panic isolation, and outcome collection.
pub trait GridTask: Sync {
    /// What a successful run produces.
    type Output: Send;

    /// The task's grid coordinates (used in failure reports and events).
    fn coord(&self) -> TaskCoord;

    /// The task family name, used as the low-cardinality `family` label
    /// on telemetry spans and outcome counters (`"compression"`,
    /// `"forecast"`, …).
    fn family(&self) -> &'static str {
        "task"
    }

    /// Executes the task. Errors become [`TaskOutcome::Failed`]; panics
    /// are trapped by the engine and become [`TaskOutcome::Panicked`].
    fn run(&self, ctx: &GridContext) -> Result<Self::Output, ScenarioError>;
}

/// One compression-grid cell: measure TE, CR and segment count for
/// `(dataset, method, ε)` (Figure 2, Figure 3, Table 3 inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionTask {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Lossy method.
    pub method: Method,
    /// Error bound.
    pub epsilon: f64,
}

impl CompressionTask {
    /// Enumerates the full `dataset × method × ε` cross-product of a
    /// configuration, in deterministic configuration order.
    pub fn enumerate(config: &GridConfig) -> Vec<CompressionTask> {
        config
            .datasets
            .iter()
            .flat_map(|&dataset| {
                config.methods.iter().flat_map(move |&method| {
                    config.error_bounds.iter().map(move |&epsilon| CompressionTask {
                        dataset,
                        method,
                        epsilon,
                    })
                })
            })
            .collect()
    }
}

impl GridTask for CompressionTask {
    type Output = CompressionRecord;

    fn family(&self) -> &'static str {
        "compression"
    }

    fn coord(&self) -> TaskCoord {
        TaskCoord {
            method: Some(self.method),
            epsilon: Some(self.epsilon),
            ..TaskCoord::dataset(self.dataset)
        }
    }

    fn run(&self, ctx: &GridContext) -> Result<CompressionRecord, ScenarioError> {
        let ds = ctx.try_dataset(self.dataset)?;
        let t = ctx.transform(self.dataset, Subset::Full, self.method, self.epsilon)?;
        let target = ds.series.target();
        Ok(CompressionRecord {
            dataset: self.dataset,
            method: self.method,
            epsilon: self.epsilon,
            te_nrmse: nrmse(target.values(), t.series.target().values()),
            te_rmse: rmse(target.values(), t.series.target().values()),
            cr: compression_ratio(ds.raw_size, t.stats.size_bytes),
            segments: t.stats.num_segments,
        })
    }
}

/// One Gorilla-baseline measurement: the lossless CR of a dataset's
/// target channel (the Figure-2 baseline line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GorillaTask {
    /// Dataset.
    pub dataset: DatasetKind,
}

impl GorillaTask {
    /// One task per configured dataset.
    fn enumerate(config: &GridConfig) -> Vec<GorillaTask> {
        config.datasets.iter().map(|&dataset| GorillaTask { dataset }).collect()
    }
}

impl GridTask for GorillaTask {
    type Output = (DatasetKind, f64);

    fn family(&self) -> &'static str {
        "gorilla"
    }

    fn coord(&self) -> TaskCoord {
        TaskCoord::dataset(self.dataset)
    }

    fn run(&self, ctx: &GridContext) -> Result<(DatasetKind, f64), ScenarioError> {
        let ds = ctx.try_dataset(self.dataset)?;
        let target = ds.series.target();
        let raw = compression::raw_bytes(target).len();
        let frame = Gorilla.compress(target, 0.0)?;
        Ok((self.dataset, compression_ratio(raw, frame.size_bytes())))
    }
}

/// One Algorithm-1 task: train a `(dataset, model, seed)` configuration
/// on raw data and score it on every `(method, ε)` transformed test
/// subset. Produces the baseline record plus one record per combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForecastTask {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Forecasting model.
    pub model: ModelKind,
    /// Random seed.
    pub seed: u64,
}

impl ForecastTask {
    /// Enumerates `dataset × model × seed` in configuration order, with
    /// per-model seed counts from [`GridConfig::seeds_for`].
    pub fn enumerate(config: &GridConfig) -> Vec<ForecastTask> {
        config
            .datasets
            .iter()
            .flat_map(|&dataset| {
                config.models.iter().flat_map(move |&model| {
                    config.seeds_for(model).into_iter().map(move |seed| ForecastTask {
                        dataset,
                        model,
                        seed,
                    })
                })
            })
            .collect()
    }
}

impl GridTask for ForecastTask {
    type Output = Vec<ForecastRecord>;

    fn family(&self) -> &'static str {
        "forecast"
    }

    fn coord(&self) -> TaskCoord {
        TaskCoord {
            model: Some(self.model),
            seed: Some(self.seed),
            ..TaskCoord::dataset(self.dataset)
        }
    }

    fn run(&self, ctx: &GridContext) -> Result<Vec<ForecastRecord>, ScenarioError> {
        let config = &ctx.config;
        let ds = ctx.try_dataset(self.dataset)?;
        let split = &ds.split;
        let mut model = config.build_task_model(self.dataset, self.model, self.seed);
        // Raw-trained model: loaded from the artifact store when a
        // previous run checkpointed this (dataset, model, seed), fitted
        // and checkpointed otherwise.
        let key = config.artifact_key(self.dataset, self.model, self.seed, None, None);
        ctx.fit_or_load(&key, model.as_mut(), &split.train, &split.val)?;
        let compressors: Vec<Box<dyn PeblcCompressor>> =
            config.methods.iter().map(|m| m.compressor()).collect();
        let mut provider = |subset: Subset, c: &dyn PeblcCompressor, eps: f64| {
            let method = method_for(config, c.name())?;
            ctx.transform(self.dataset, subset, method, eps).map(|t| t.series.clone())
        };
        let outcome = score_scenario_with(
            model.as_ref(),
            &split.train,
            &split.test,
            &compressors,
            &config.error_bounds,
            config.eval_stride,
            config.batch_size,
            &mut provider,
        )?;
        outcome_to_records(config, self.dataset, self.model, self.seed, outcome)
    }
}

/// The §4.4.1 variant of [`ForecastTask`]: models are retrained on
/// decompressed train/val data and scored on the decompressed test
/// subset against raw targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainTask {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Forecasting model.
    pub model: ModelKind,
    /// Random seed.
    pub seed: u64,
}

impl RetrainTask {
    /// Enumerates `dataset × model × seed` in configuration order.
    pub fn enumerate(config: &GridConfig) -> Vec<RetrainTask> {
        ForecastTask::enumerate(config)
            .into_iter()
            .map(|t| RetrainTask { dataset: t.dataset, model: t.model, seed: t.seed })
            .collect()
    }
}

impl GridTask for RetrainTask {
    type Output = Vec<ForecastRecord>;

    fn family(&self) -> &'static str {
        "retrain"
    }

    fn coord(&self) -> TaskCoord {
        TaskCoord {
            model: Some(self.model),
            seed: Some(self.seed),
            ..TaskCoord::dataset(self.dataset)
        }
    }

    fn run(&self, ctx: &GridContext) -> Result<Vec<ForecastRecord>, ScenarioError> {
        let config = &ctx.config;
        let ds = ctx.try_dataset(self.dataset)?;
        let split = &ds.split;
        // Baseline: a raw-trained model scored on raw test data. Its
        // artifact key has no transform, so it is *shared* with the
        // forecast grid — a retrain run after a forecast run (or vice
        // versa) loads the same checkpoint instead of refitting.
        let mut base = config.build_task_model(self.dataset, self.model, self.seed);
        let base_key = config.artifact_key(self.dataset, self.model, self.seed, None, None);
        ctx.fit_or_load(&base_key, base.as_mut(), &split.train, &split.val)?;
        let scaler = StandardScaler::fit_single(split.train.target().values());
        let raw_windows =
            make_windows(&split.test, base.input_len(), base.horizon(), config.eval_stride);
        if raw_windows.is_empty() {
            return Err(ScenarioError::NoWindows);
        }
        let baseline = score_windows(base.as_ref(), &raw_windows, &scaler, config.batch_size)?;

        // Each (method, ε) retrains on the transformed train/val data;
        // the training transform is part of the artifact key.
        let mut transformed = Vec::new();
        for &method in &config.methods {
            for &eps in &config.error_bounds {
                let t_train = ctx.transform(self.dataset, Subset::Train, method, eps)?;
                let t_val = ctx.transform(self.dataset, Subset::Val, method, eps)?;
                let t_test = ctx.transform(self.dataset, Subset::Test, method, eps)?;
                let mut model = config.build_task_model(self.dataset, self.model, self.seed);
                let key = config.artifact_key(
                    self.dataset,
                    self.model,
                    self.seed,
                    Some(method),
                    Some(eps),
                );
                ctx.fit_or_load(&key, model.as_mut(), &t_train.series, &t_val.series)?;
                let metrics = score_transformed(
                    model.as_ref(),
                    &split.test,
                    &t_test.series,
                    &scaler,
                    config.eval_stride,
                    config.batch_size,
                )?;
                transformed.push((method.name(), eps, metrics));
            }
        }
        let outcome = ScenarioOutcome { baseline, transformed };
        outcome_to_records(config, self.dataset, self.model, self.seed, outcome)
    }
}

/// Resolves a method name back to the configured [`Method`].
fn method_for(config: &GridConfig, name: &'static str) -> Result<Method, ScenarioError> {
    config
        .methods
        .iter()
        .copied()
        .find(|m| m.name() == name)
        .ok_or(ScenarioError::UnknownMethod(name))
}

/// Converts one scenario outcome into grid records (baseline first).
fn outcome_to_records(
    config: &GridConfig,
    dataset: DatasetKind,
    model: ModelKind,
    seed: u64,
    outcome: ScenarioOutcome,
) -> Result<Vec<ForecastRecord>, ScenarioError> {
    let mut recs = vec![ForecastRecord {
        dataset,
        model,
        method: None,
        epsilon: 0.0,
        seed,
        metrics: outcome.baseline,
    }];
    for (name, eps, metrics) in outcome.transformed {
        let method = method_for(config, name)?;
        recs.push(ForecastRecord {
            dataset,
            model,
            method: Some(method),
            epsilon: eps,
            seed,
            metrics,
        });
    }
    Ok(recs)
}

/// Successful records plus structured failures from one engine run, in
/// task order. A partial grid still renders: consumers read `records`
/// and surface `failures` via `crate::results::failure_summary`.
#[derive(Debug)]
pub struct GridReport<R> {
    /// Outputs of successful tasks, in task order.
    pub records: Vec<R>,
    /// One entry per failed or panicked task, in task order.
    pub failures: Vec<TaskFailure>,
}

impl<R> GridReport<R> {
    /// Logs a failure summary to stderr (no-op when everything
    /// succeeded) and returns the successful records.
    pub(crate) fn into_records_logged(self, label: &str) -> Vec<R> {
        if let Some(summary) = crate::results::failure_summary(&self.failures) {
            eprintln!("[{label}] {summary}");
        }
        self.records
    }
}

type ProgressFn<'a> = Box<dyn Fn(TaskEvent) + Sync + 'a>;

/// The scheduler front end: runs typed tasks over the shared work queue
/// ([`crate::sched`]) with per-task panic isolation, a trapped
/// completion callback, and deterministic outcome assembly.
pub struct Engine<'c> {
    ctx: &'c GridContext,
    threads: usize,
    on_done: Option<ProgressFn<'c>>,
    chaos: Option<ChaosSchedule>,
}

/// Event density (% of tasks) for schedules built from
/// [`GridConfig::chaos_seed`].
const SEEDED_CHAOS_INTENSITY_PCT: usize = 20;

impl<'c> Engine<'c> {
    /// Creates an engine over a shared context, taking thread count and
    /// chaos seed from its configuration.
    pub fn new(ctx: &'c GridContext) -> Self {
        Engine { ctx, threads: ctx.config.threads, on_done: None, chaos: None }
    }

    /// Overrides the worker-thread count (the outcome *order* is
    /// identical for any value; this only affects wall-clock).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Installs an explicit chaos schedule for the next run. Events are
    /// one-shot: a schedule is consumed by the run that fires it, so
    /// build a fresh engine (or schedule) per chaos run.
    pub fn chaos_schedule(mut self, schedule: ChaosSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Installs a per-task completion callback, invoked from worker
    /// threads as each task finishes (in completion order — see
    /// [`TaskEvent`] for the `index` vs `seq` distinction). A panic in
    /// the callback is trapped, logged to stderr, and counted in
    /// [`RunStats::callback_panics`]; it never aborts the run.
    pub fn on_task_done<F>(mut self, callback: F) -> Self
    where
        F: Fn(TaskEvent) + Sync + 'c,
    {
        self.on_done = Some(Box::new(callback));
        self
    }

    /// The context this engine schedules against.
    pub fn context(&self) -> &GridContext {
        self.ctx
    }

    /// Runs every task, returning one [`TaskOutcome`] per task **in task
    /// order**, independent of thread count, dispatch order, and chaos
    /// schedule. A panicking task is trapped by the worker
    /// (`catch_unwind`) and yields `Panicked`. An empty task list returns immediately without spawning
    /// workers (so `threads = 0, n = 0` is a no-op, not a panic).
    pub fn run<T: GridTask>(&self, tasks: &[T]) -> Vec<TaskOutcome<T::Output>> {
        self.run_with_stats(tasks).0
    }

    /// [`Engine::run`], also returning the scheduler's [`RunStats`]
    /// (chaos casualties, rescued tasks, callback panics).
    ///
    /// Tasks are dispatched as the first task of each dataset, then the
    /// rest in task order. The first task to touch a dataset generates it
    /// while holding the dataset cache's slot lock; in plain task order
    /// every worker would reach each new dataset together and wait out
    /// one generation.
    pub fn run_with_stats<T: GridTask>(
        &self,
        tasks: &[T],
    ) -> (Vec<TaskOutcome<T::Output>>, RunStats) {
        let n = tasks.len();
        let mut seen = HashSet::new();
        let (first, rest): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| seen.insert(tasks[i].coord().dataset));
        let order: Vec<usize> = first.into_iter().chain(rest).collect();
        // A seeded schedule is built fresh per run (its one-shot flags
        // start clean); an explicit schedule takes precedence.
        let seeded = match (&self.chaos, self.ctx.config.chaos_seed) {
            (None, Some(seed)) => Some(ChaosSchedule::seeded(seed, n, SEEDED_CHAOS_INTENSITY_PCT)),
            _ => None,
        };
        let chaos = self.chaos.as_ref().or(seeded.as_ref());
        let seq = AtomicUsize::new(0);
        let callback_panics = AtomicU64::new(0);
        let (outcomes, mut stats) =
            sched::run(&order, self.threads, chaos, |i, inject_callback_panic| {
                let outcome = self.run_one(&tasks[i]);
                self.notify_done(
                    TaskEvent {
                        index: i,
                        seq: seq.fetch_add(1, Ordering::Relaxed),
                        total: n,
                        coord: tasks[i].coord(),
                        status: outcome.status(),
                    },
                    inject_callback_panic,
                    &callback_panics,
                );
                outcome
            });
        stats.callback_panics = callback_panics.load(Ordering::Relaxed);
        (outcomes, stats)
    }

    /// Delivers one completion event, trapping callback panics so a
    /// faulty progress callback (or an injected chaos one) degrades to a
    /// logged warning instead of unwinding the worker and aborting the
    /// grid through the scope join.
    fn notify_done(&self, event: TaskEvent, inject_panic: bool, panics: &AtomicU64) {
        let trapped = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("chaos: injected callback panic at task {}", event.index);
            }
            if let Some(cb) = &self.on_done {
                cb(event);
            }
        }));
        if let Err(payload) = trapped {
            panics.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine_callback_panics_total", &[], 1);
            eprintln!(
                "[engine] on_task_done callback panicked for task {} ({}): {}",
                event.index,
                event.coord,
                panic_message(payload.as_ref())
            );
        }
    }

    fn run_one<T: GridTask>(&self, task: &T) -> TaskOutcome<T::Output> {
        let family = task.family();
        // The label strings are only materialised while telemetry records;
        // the disabled path pays one atomic load and no formatting.
        let span = if telemetry::enabled() {
            let coord = task.coord();
            let epsilon = coord.epsilon.map(|e| e.to_string()).unwrap_or_default();
            let seed = coord.seed.map(|s| s.to_string()).unwrap_or_default();
            telemetry::span(
                "engine.task",
                &[
                    ("family", family),
                    ("dataset", coord.dataset.name()),
                    ("method", coord.method.map(|m| m.name()).unwrap_or("")),
                    ("epsilon", &epsilon),
                    ("model", coord.model.map(|m| m.name()).unwrap_or("")),
                    ("seed", &seed),
                ],
            )
        } else {
            telemetry::Span::inert()
        };
        let start = std::time::Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| task.run(self.ctx))) {
            Ok(Ok(r)) => TaskOutcome::Ok(r),
            Ok(Err(e)) => TaskOutcome::Failed(e),
            Err(payload) => TaskOutcome::Panicked(panic_message(payload.as_ref())),
        };
        drop(span);
        let status = match outcome.status() {
            TaskStatus::Ok => "ok",
            TaskStatus::Failed => "failed",
            TaskStatus::Panicked => "panicked",
        };
        telemetry::counter_add("engine_tasks_total", &[("family", family), ("status", status)], 1);
        telemetry::observe(
            "engine_task_seconds",
            &[("family", family)],
            telemetry::secs(start.elapsed()),
        );
        outcome
    }

    /// Runs every task and splits the outcomes into successful records
    /// and structured [`TaskFailure`]s, both in task order.
    pub fn run_report<T: GridTask>(&self, tasks: &[T]) -> GridReport<T::Output> {
        let outcomes = self.run(tasks);
        let mut records = Vec::with_capacity(tasks.len());
        let mut failures = Vec::new();
        for (task, outcome) in tasks.iter().zip(outcomes) {
            match outcome {
                TaskOutcome::Ok(r) => records.push(r),
                TaskOutcome::Failed(e) => failures.push(TaskFailure {
                    coord: task.coord(),
                    error: e.to_string(),
                    panicked: false,
                }),
                TaskOutcome::Panicked(msg) => {
                    failures.push(TaskFailure { coord: task.coord(), error: msg, panicked: true })
                }
            }
        }
        GridReport { records, failures }
    }

    /// The compression grid (`dataset × method × ε` TE/CR cells) as a
    /// structured report.
    pub fn compression_report(&self) -> GridReport<CompressionRecord> {
        self.run_report(&CompressionTask::enumerate(&self.ctx.config))
    }

    /// The Gorilla lossless baseline per dataset as a structured report.
    pub fn gorilla_report(&self) -> GridReport<(DatasetKind, f64)> {
        self.run_report(&GorillaTask::enumerate(&self.ctx.config))
    }

    /// The forecast grid (Algorithm 1 per `dataset × model × seed`) as a
    /// structured report, records flattened in task order.
    pub fn forecast_report(&self) -> GridReport<ForecastRecord> {
        flatten(self.run_report(&ForecastTask::enumerate(&self.ctx.config)))
    }

    /// The §4.4.1 retraining grid as a structured report, records
    /// flattened in task order.
    pub fn retrain_report(&self) -> GridReport<ForecastRecord> {
        flatten(self.run_report(&RetrainTask::enumerate(&self.ctx.config)))
    }
}

/// Flattens a report of per-task record batches into a flat record list.
fn flatten<R>(report: GridReport<Vec<R>>) -> GridReport<R> {
    GridReport {
        records: report.records.into_iter().flatten().collect(),
        failures: report.failures,
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A test task that succeeds, fails, or panics by index.
    struct ScriptedTask {
        index: usize,
        mode: Mode,
    }

    enum Mode {
        Ok,
        Fail,
        Panic,
    }

    impl GridTask for ScriptedTask {
        type Output = usize;

        fn coord(&self) -> TaskCoord {
            TaskCoord { seed: Some(self.index as u64), ..TaskCoord::dataset(DatasetKind::ETTm1) }
        }

        fn run(&self, _ctx: &GridContext) -> Result<usize, ScenarioError> {
            match self.mode {
                Mode::Ok => Ok(self.index * 10),
                Mode::Fail => Err(ScenarioError::NoWindows),
                Mode::Panic => panic!("scripted panic at {}", self.index),
            }
        }
    }

    fn scripted(n: usize, fail: &[usize], panic: &[usize]) -> Vec<ScriptedTask> {
        (0..n)
            .map(|index| ScriptedTask {
                index,
                mode: if panic.contains(&index) {
                    Mode::Panic
                } else if fail.contains(&index) {
                    Mode::Fail
                } else {
                    Mode::Ok
                },
            })
            .collect()
    }

    fn test_ctx() -> GridContext {
        GridContext::new(GridConfig::smoke())
    }

    #[test]
    fn panicking_task_is_isolated() {
        let ctx = test_ctx();
        let tasks = scripted(12, &[3], &[7]);
        let outcomes = Engine::new(&ctx).threads(4).run(&tasks);
        assert_eq!(outcomes.len(), 12);
        for (i, o) in outcomes.iter().enumerate() {
            match i {
                3 => assert!(matches!(o, TaskOutcome::Failed(ScenarioError::NoWindows))),
                7 => match o {
                    TaskOutcome::Panicked(msg) => {
                        assert!(msg.contains("scripted panic at 7"), "{msg}")
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                },
                _ => assert!(matches!(o, TaskOutcome::Ok(v) if *v == i * 10)),
            }
        }
    }

    #[test]
    fn outcomes_are_deterministic_across_thread_counts() {
        let ctx = test_ctx();
        let tasks = scripted(40, &[5, 11], &[17]);
        let one: Vec<String> =
            Engine::new(&ctx).threads(1).run(&tasks).iter().map(|o| format!("{o:?}")).collect();
        let four: Vec<String> =
            Engine::new(&ctx).threads(4).run(&tasks).iter().map(|o| format!("{o:?}")).collect();
        assert_eq!(one, four);
    }

    #[test]
    fn report_splits_records_and_failures_in_task_order() {
        let ctx = test_ctx();
        let tasks = scripted(6, &[1], &[4]);
        let report = Engine::new(&ctx).threads(3).run_report(&tasks);
        assert_eq!(report.records, vec![0, 20, 30, 50]);
        assert_eq!(report.failures.len(), 2);
        assert!(!report.failures[0].panicked);
        assert_eq!(report.failures[0].coord.seed, Some(1));
        assert!(report.failures[1].panicked);
        assert_eq!(report.failures[1].coord.seed, Some(4));
        assert!(report.failures[1].error.contains("scripted panic"));
    }

    #[test]
    fn progress_events_cover_every_task() {
        let ctx = test_ctx();
        let tasks = scripted(15, &[2], &[9]);
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        Engine::new(&ctx).threads(4).on_task_done(|e| events.lock().unwrap().push(e)).run(&tasks);
        let mut events = events.into_inner().unwrap();
        events.sort_by_key(|e| e.index);
        assert_eq!(events.len(), 15);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.index, i);
            assert_eq!(e.total, 15);
            let expected = match i {
                2 => TaskStatus::Failed,
                9 => TaskStatus::Panicked,
                _ => TaskStatus::Ok,
            };
            assert_eq!(e.status, expected, "task {i}");
        }
    }

    #[test]
    fn panicking_callback_is_trapped_and_counted() {
        // Regression: the callback used to run outside the worker's
        // catch_unwind, so one bad progress callback aborted the whole
        // grid through the scope join. It must now degrade to a logged
        // warning, a counted panic, and an otherwise complete run.
        let ctx = test_ctx();
        let tasks = scripted(12, &[], &[]);
        let (outcomes, stats) = Engine::new(&ctx)
            .threads(3)
            .on_task_done(|e| {
                if e.index == 5 {
                    panic!("progress callback bug at {}", e.index);
                }
            })
            .run_with_stats(&tasks);
        assert_eq!(outcomes.len(), 12);
        assert!(outcomes.iter().all(|o| o.is_ok()), "task outcomes are unaffected");
        assert_eq!(stats.callback_panics, 1);
    }

    #[test]
    fn injected_chaos_callback_panics_are_counted() {
        let ctx = test_ctx();
        let tasks = scripted(10, &[], &[]);
        let chaos = ChaosSchedule::scripted([
            (2, sched::ChaosEvent::CallbackPanic),
            (7, sched::ChaosEvent::CallbackPanic),
        ]);
        let (outcomes, stats) =
            Engine::new(&ctx).threads(2).chaos_schedule(chaos).run_with_stats(&tasks);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(stats.callback_panics, 2);
    }

    #[test]
    fn chaos_kills_leave_outcomes_byte_identical() {
        let ctx = test_ctx();
        let tasks = scripted(30, &[4], &[11]);
        let clean: Vec<String> =
            Engine::new(&ctx).threads(1).run(&tasks).iter().map(|o| format!("{o:?}")).collect();
        let chaos =
            ChaosSchedule::scripted((0..30).step_by(5).map(|i| (i, sched::ChaosEvent::Kill)));
        let (outcomes, stats) =
            Engine::new(&ctx).threads(4).chaos_schedule(chaos).run_with_stats(&tasks);
        let chaotic: Vec<String> = outcomes.iter().map(|o| format!("{o:?}")).collect();
        assert_eq!(clean, chaotic);
        assert!(stats.worker_deaths >= 1);
    }

    #[test]
    fn empty_grid_with_zero_config_threads_is_a_noop() {
        // threads = 0 with n = 0 used to spawn a pointless worker; the
        // run must now return immediately with no outcomes.
        let mut cfg = GridConfig::smoke();
        cfg.threads = 0;
        let ctx = GridContext::new(cfg);
        let outcomes = Engine::new(&ctx).run(&scripted(0, &[], &[]));
        assert!(outcomes.is_empty());
        let (outcomes, stats) = Engine::new(&ctx).run_with_stats(&scripted(0, &[], &[]));
        assert!(outcomes.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn event_index_is_task_order_and_seq_is_completion_order() {
        let ctx = test_ctx();
        let tasks = scripted(25, &[], &[]);
        let events: Mutex<Vec<TaskEvent>> = Mutex::new(Vec::new());
        Engine::new(&ctx).threads(4).on_task_done(|e| events.lock().unwrap().push(e)).run(&tasks);
        let events = events.into_inner().unwrap();
        assert_eq!(events.len(), 25);
        // `seq` is dense completion order: 0..n with no gaps.
        let mut seqs: Vec<usize> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..25).collect::<Vec<_>>());
        // `index` identifies the task regardless of when it finished.
        let mut indices: Vec<usize> = events.iter().map(|e| e.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..25).collect::<Vec<_>>());
        for e in &events {
            assert_eq!(e.coord.seed, Some(e.index as u64), "coord follows index, not seq");
        }
    }

    #[test]
    fn first_task_of_each_dataset_is_dispatched_first() {
        struct OnDataset(DatasetKind);
        impl GridTask for OnDataset {
            type Output = ();
            fn coord(&self) -> TaskCoord {
                TaskCoord::dataset(self.0)
            }
            fn run(&self, _ctx: &GridContext) -> Result<(), ScenarioError> {
                Ok(())
            }
        }
        let ctx = test_ctx();
        let (a, b) = (DatasetKind::ETTm1, DatasetKind::ETTm2);
        let tasks: Vec<OnDataset> = [a, a, a, b, b, b].into_iter().map(OnDataset).collect();
        let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        Engine::new(&ctx)
            .threads(1)
            .on_task_done(|e| done.lock().unwrap().push(e.index))
            .run(&tasks);
        assert_eq!(done.into_inner().unwrap(), vec![0, 3, 1, 2, 4, 5]);
    }

    #[test]
    fn enumeration_orders_match_configuration() {
        let mut cfg = GridConfig::smoke();
        cfg.error_bounds = vec![0.1, 0.2];
        let comp = CompressionTask::enumerate(&cfg);
        assert_eq!(comp.len(), 3 * 2); // methods x eps
        assert_eq!(comp[0].epsilon, 0.1);
        assert_eq!(comp[1].epsilon, 0.2);
        let fore = ForecastTask::enumerate(&cfg);
        assert_eq!(fore.len(), 2); // 2 models x 1 seed
        let retrain = RetrainTask::enumerate(&cfg);
        assert_eq!(retrain.len(), fore.len());
        assert_eq!(GorillaTask::enumerate(&cfg).len(), 1);
    }

    #[test]
    fn coord_display_is_readable() {
        let c = TaskCoord {
            method: Some(Method::Pmc),
            epsilon: Some(0.1),
            ..TaskCoord::dataset(DatasetKind::ETTm1)
        };
        assert_eq!(c.to_string(), "ETTm1/PMC@0.1");
        let f = ForecastTask { dataset: DatasetKind::Solar, model: ModelKind::GBoost, seed: 41 };
        assert_eq!(f.coord().to_string(), "Solar model=GBoost seed=41");
    }
}
