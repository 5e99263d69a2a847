//! The grid workloads. `grid-cold` is the paper's Algorithm-1 forecast grid
//! at `repro --quick` scale; `grid-compress` is the Fig 2 / Table 3
//! compression grid at paper lengths. Both run through the shipped
//! `Engine` reports on a fresh `GridContext` per data seed (the seed, then
//! the seeds after it), as many whole grids as fill the requested time on
//! the reference host. The unit of latency is a whole grid, configuration
//! to CSV; the unit of output is a cell.
//!
//! The traced run replays the same grids through benchmark-side task
//! wrappers that call the same public functions the shipped tasks call,
//! with one span around each call, and checks that every cell comes out
//! bit-identical to the untraced run.

use std::time::{Duration, Instant};

use compression::codec::PeblcCompressor;
use compression::{find_bound_violation, Method};
use evalcore::artifact::ArtifactKey;
use evalcore::engine::{CompressionTask, Engine, ForecastTask, GridTask, TaskCoord};
use evalcore::results::{compression_csv, forecast_csv, CompressionRecord, ForecastRecord};
use evalcore::scenario::{score_scenario_with, ScenarioError, ScenarioOutcome};
use evalcore::{GridConfig, GridContext, Subset};
use forecast::{build_model, BuildOptions};
use tsdata::metrics::{compression_ratio, nrmse, rmse};

use crate::json;
use crate::spec::{EndToEnd, Layers};
use crate::stats::{self, fnv1a, peak_rss_mb, reset_peak_rss};
use crate::trace::{self, Recorder, Span};
use crate::Outcome;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Compress,
}

/// Set-ups in each of the two blocks, one before and one after the timed
/// grids; `setup_s` is the median of both blocks. About 0.06 s (cold) and
/// 0.2 s (compress) per block on a 2-core host.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Cold => 500,
        Kind::Compress => 100,
    }
}

/// Measured time of one grid on a 2-core host, which turns `--seconds`
/// into a whole number of grids. The grid count depends on `--seconds`
/// alone, so a seed always names the same work.
fn nominal_grid_s(kind: Kind) -> f64 {
    match kind {
        Kind::Cold => 15.0,
        Kind::Compress => 3.5,
    }
}

/// The grid for one data seed.
fn config(kind: Kind, data_seed: u64) -> GridConfig {
    let mut cfg = match kind {
        Kind::Cold => GridConfig {
            len: Some(2_000),
            seeds_deep: 1,
            seeds_simple: 1,
            ..GridConfig::default_repro()
        },
        Kind::Compress => GridConfig::paper(),
    };
    cfg.data_seed = data_seed;
    cfg
}

/// Cells one task of this grid produces.
fn cells_per_task(cfg: &GridConfig, kind: Kind) -> usize {
    match kind {
        Kind::Cold => 1 + cfg.methods.len() * cfg.error_bounds.len(),
        Kind::Compress => 1,
    }
}

/// The grid's tasks as `(coordinates, family)`.
fn task_list(cfg: &GridConfig, kind: Kind) -> Vec<(TaskCoord, &'static str)> {
    match kind {
        Kind::Cold => {
            ForecastTask::enumerate(cfg).iter().map(|t| (t.coord(), t.family())).collect()
        }
        Kind::Compress => {
            CompressionTask::enumerate(cfg).iter().map(|t| (t.coord(), t.family())).collect()
        }
    }
}

/// One whole grid's results.
struct GridRun {
    wall: Duration,
    cells: usize,
    failed_cells: usize,
    csv: String,
    /// Every metric of every cell is finite.
    finite: bool,
    ctx: GridContext,
}

/// Everything the untraced phase measured.
#[derive(Default)]
struct Phase {
    wall: Duration,
    cells: usize,
    failed_cells: usize,
    /// Wall time of each grid, configuration to CSV.
    grid_us: Vec<f64>,
    /// FNV-1a of each grid's CSV.
    digests: Vec<u64>,
    /// Peak resident size of each grid, or of the process so far when the
    /// kernel cannot reset the peak.
    peak_mb: Vec<f64>,
    peak_reset: bool,
    checks: Vec<(&'static str, bool)>,
}

pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut setups = setup_samples(kind, seed);
    let untraced = untraced_phase(kind, seed, seconds);
    setups.extend(setup_samples(kind, seed));
    let e2e = {
        let (p50, p99) = stats::p50_p99(&untraced.grid_us);
        EndToEnd {
            setup_s: stats::median(&setups),
            peak_rss_mb: stats::median(&untraced.peak_mb),
            throughput_per_s: untraced.cells as f64 / untraced.wall.as_secs_f64(),
            latency_p50_us: p50,
            latency_p99_us: p99,
        }
    };
    let mut outcome = Outcome {
        attempted: (untraced.cells + untraced.failed_cells) as u64,
        failed: untraced.failed_cells as u64,
        checks: untraced.checks.clone(),
        valid: true,
        e2e,
        layers: None,
        spans: Vec::new(),
        info: vec![
            ("grids", untraced.digests.len().to_string()),
            ("setup_samples", setups.len().to_string()),
            ("peak_rss_reset", untraced.peak_reset.to_string()),
            ("csv_fnv1a", json::quote(&digest_list(&untraced.digests))),
        ],
    };
    if traced {
        traced_phase(kind, seed, &untraced, &mut outcome);
    }
    outcome
}

fn digest_list(digests: &[u64]) -> String {
    digests.iter().map(|d| format!("{d:016x}")).collect::<Vec<_>>().join(",")
}

/// One block of samples of the grid path's fixed cost: build the context
/// and the engine, enumerate the tasks, and drive them through the
/// engine's pool with empty bodies. Everything a grid run does except its
/// cells' own work.
fn setup_samples(kind: Kind, seed: u64) -> Vec<f64> {
    let cfg = config(kind, seed);
    (0..setup_reps(kind))
        .map(|_| {
            let started = Instant::now();
            let ctx = GridContext::new(cfg.clone());
            let engine = Engine::new(&ctx);
            let tasks: Vec<Empty> = task_list(&engine.context().config, kind)
                .into_iter()
                .map(|(coord, family)| Empty { coord, family })
                .collect();
            std::hint::black_box(engine.run_report(&tasks));
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// A task with a real task's coordinates and no work.
struct Empty {
    coord: TaskCoord,
    family: &'static str,
}

impl GridTask for Empty {
    type Output = ();

    fn coord(&self) -> TaskCoord {
        self.coord
    }

    fn family(&self) -> &'static str {
        self.family
    }

    fn run(&self, _ctx: &GridContext) -> Result<(), ScenarioError> {
        Ok(())
    }
}

/// Runs one grid through the shipped engine report, from configuration to
/// CSV.
fn shipped_grid(kind: Kind, cfg: GridConfig) -> GridRun {
    let per_task = cells_per_task(&cfg, kind);
    let started = Instant::now();
    let ctx = GridContext::new(cfg);
    let (wall, csv, cells, failed_tasks, finite) = match kind {
        Kind::Cold => {
            let report = Engine::new(&ctx).forecast_report();
            let csv = forecast_csv(&report.records);
            let wall = started.elapsed();
            let finite = report.records.iter().all(|r| {
                let m = &r.metrics;
                [m.r, m.rse, m.rmse, m.nrmse].iter().all(|v| v.is_finite())
            });
            (wall, csv, report.records.len(), report.failures.len(), finite)
        }
        Kind::Compress => {
            let report = Engine::new(&ctx).compression_report();
            let csv = compression_csv(&report.records);
            let wall = started.elapsed();
            let finite = report
                .records
                .iter()
                .all(|r| [r.te_nrmse, r.te_rmse, r.cr].iter().all(|v| v.is_finite()));
            (wall, csv, report.records.len(), report.failures.len(), finite)
        }
    };
    GridRun { wall, cells, failed_cells: failed_tasks * per_task, csv, finite, ctx }
}

fn untraced_phase(kind: Kind, seed: u64, seconds: u64) -> Phase {
    let mut phase = Phase::default();
    let (mut complete, mut finite, mut in_bound) = (true, true, true);
    let grids = (seconds as f64 / nominal_grid_s(kind)).round().max(1.0) as u64;
    phase.peak_reset = true;
    for rep in 0..grids {
        phase.peak_reset &= reset_peak_rss();
        let grid = shipped_grid(kind, config(kind, seed + rep));
        phase.peak_mb.push(peak_rss_mb());
        let ctx = &grid.ctx;
        phase.wall += grid.wall;
        phase.cells += grid.cells;
        phase.failed_cells += grid.failed_cells;
        phase.grid_us.push(grid.wall.as_secs_f64() * 1e6);
        phase.digests.push(fnv1a(grid.csv.as_bytes()));

        // Output checks, outside the timed section.
        let expected = task_list(&ctx.config, kind).len() * cells_per_task(&ctx.config, kind);
        complete &= grid.cells == expected && grid.failed_cells == 0;
        finite &= grid.finite;
        if kind == Kind::Compress {
            in_bound &= transforms_within_bound(ctx);
        }
    }
    phase.checks.push(("cells_complete", complete));
    phase.checks.push(("metrics_finite", finite));
    if kind == Kind::Compress {
        phase.checks.push(("transforms_within_bound", in_bound));
    }
    phase
}

/// Every cached full-series transform keeps every point within ε of the
/// raw target.
fn transforms_within_bound(ctx: &GridContext) -> bool {
    CompressionTask::enumerate(&ctx.config).iter().all(|t| {
        let (Ok(ds), Ok(tr)) = (
            ctx.try_dataset(t.dataset),
            ctx.transform(t.dataset, Subset::Full, t.method, t.epsilon),
        ) else {
            return false;
        };
        let raw = ds.series.target().values();
        let decoded = tr.series.target().values();
        raw.len() == decoded.len() && find_bound_violation(raw, decoded, t.epsilon, 1e-9).is_none()
    })
}

fn histogram_sum(name: &str) -> f64 {
    telemetry::global()
        .metrics()
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.value.as_histogram_totals())
        .fold(0.0, |total, (_, sum)| total + sum)
}

/// Replays the untraced phase's grids (same data seeds) through the
/// traced task wrappers and derives the per-layer numbers.
fn traced_phase(kind: Kind, seed: u64, untraced: &Phase, outcome: &mut Outcome) {
    let rec = Recorder::new();
    let predict_s_before = histogram_sum("predict_batch_seconds");
    let windows_before = telemetry::global().metrics().counter_total("predict_windows_total");
    let (mut wall, mut fitted, mut hits, mut misses) = (Duration::ZERO, 0, 0, 0);
    let mut identical = true;
    let mut threads = 1;
    let mut next_op = 0u64;
    for (rep, digest) in (0..).zip(&untraced.digests) {
        let ctx = GridContext::new(config(kind, seed + rep));
        threads = ctx.config.threads;
        let started = Instant::now();
        let (csv, cells, failed_cells) = traced_grid(kind, &ctx, &rec, &mut next_op);
        wall += started.elapsed();
        outcome.attempted += (cells + failed_cells) as u64;
        outcome.failed += failed_cells as u64;
        identical &= *digest == fnv1a(csv.as_bytes());
        fitted += ctx.fit_counts().1;
        hits += ctx.transforms.hits();
        misses += ctx.transforms.misses();
    }
    outcome.checks.push(("traced_cells_identical", identical));
    // Traced over untraced wall time of the same grids. The untraced grids
    // ran first in a fresh process, so this also carries warm-up effects;
    // `trace.overhead` is the recording cost alone.
    let ratio = wall.as_secs_f64() / untraced.wall.as_secs_f64();
    outcome.info.push(("traced_wall_ratio", json::num(ratio)));

    let spans = rec.into_spans();
    let task_ns: Vec<u64> =
        spans.iter().filter(|s| s.name == "evalcore.task").map(Span::dur_ns).collect();
    let busy_s = task_ns.iter().sum::<u64>() as f64 / 1e9;
    outcome.layers = Some(Layers {
        fit_s: trace::total_s(&spans, "evalcore.fit_or_load"),
        fit_calls: fitted as f64,
        predict_batch_s: histogram_sum("predict_batch_seconds") - predict_s_before,
        predict_windows: (telemetry::global().metrics().counter_total("predict_windows_total")
            - windows_before) as f64,
        score_s: trace::self_time_s(&spans, "evalcore.score_scenario_with"),
        transform_s: trace::total_s(&spans, "evalcore.transform"),
        transform_calls: spans.iter().filter(|s| s.name == "evalcore.transform").count() as f64,
        transform_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        generate_s: trace::total_s(&spans, "evalcore.try_dataset"),
        engine_idle_share: 1.0 - busy_s / (threads as f64 * wall.as_secs_f64()),
        task_max_s: task_ns.iter().copied().max().unwrap_or(0) as f64 / 1e9,
        coverage: trace::coverage(&spans, "evalcore.task"),
        overhead: trace::overhead(&spans, "evalcore.task"),
        ..Layers::default()
    });
    outcome.spans = spans;
}

fn traced_grid(
    kind: Kind,
    ctx: &GridContext,
    rec: &Recorder,
    next_op: &mut u64,
) -> (String, usize, usize) {
    let per_task = cells_per_task(&ctx.config, kind);
    let mut op = || {
        *next_op += 1;
        *next_op
    };
    match kind {
        Kind::Cold => {
            let tasks: Vec<Traced<'_, ForecastTask>> = ForecastTask::enumerate(&ctx.config)
                .into_iter()
                .map(|task| Traced { task, op: op(), rec })
                .collect();
            let report = Engine::new(ctx).run_report(&tasks);
            let records: Vec<ForecastRecord> = report.records.into_iter().flatten().collect();
            (forecast_csv(&records), records.len(), report.failures.len() * per_task)
        }
        Kind::Compress => {
            let tasks: Vec<Traced<'_, CompressionTask>> = CompressionTask::enumerate(&ctx.config)
                .into_iter()
                .map(|task| Traced { task, op: op(), rec })
                .collect();
            let report = Engine::new(ctx).run_report(&tasks);
            (compression_csv(&report.records), report.records.len(), report.failures.len())
        }
    }
}

/// A shipped task run step by step, with a span around each public call.
struct Traced<'r, T> {
    task: T,
    op: u64,
    rec: &'r Recorder,
}

impl GridTask for Traced<'_, ForecastTask> {
    type Output = Vec<ForecastRecord>;

    fn coord(&self) -> TaskCoord {
        self.task.coord()
    }

    fn family(&self) -> &'static str {
        self.task.family()
    }

    /// The steps of `ForecastTask::run`.
    fn run(&self, ctx: &GridContext) -> Result<Vec<ForecastRecord>, ScenarioError> {
        let (rec, op, t, config) = (self.rec, self.op, &self.task, &ctx.config);
        rec.span("evalcore.task", 0, op, |root| {
            let ds = rec.span("evalcore.try_dataset", root, op, |_| ctx.try_dataset(t.dataset))?;
            let season = t.dataset.samples_per_day() as usize;
            let options = BuildOptions {
                input_len: config.input_len,
                horizon: config.horizon,
                season: (season >= 2).then_some(season),
                seed: t.seed,
                profile: config.profile,
            };
            let mut model =
                rec.span("forecast.build_model", root, op, |_| build_model(t.model, options));
            let key = ArtifactKey {
                dataset: t.dataset.name().to_string(),
                model: t.model.name().to_string(),
                seed: t.seed,
                profile: format!("{:?}", config.profile),
                method: None,
                eps_bits: None,
                input_len: config.input_len,
                horizon: config.horizon,
                len: config.len,
                channels: config.channels,
                data_seed: config.data_seed,
            };
            rec.span("evalcore.fit_or_load", root, op, |_| {
                ctx.fit_or_load(&key, model.as_mut(), &ds.split.train, &ds.split.val)
            })?;
            let compressors: Vec<Box<dyn PeblcCompressor>> =
                config.methods.iter().map(|m| m.compressor()).collect();
            let outcome = rec.span("evalcore.score_scenario_with", root, op, |score| {
                let mut provider = |subset: Subset, c: &dyn PeblcCompressor, eps: f64| {
                    let method = method_named(config, c.name())?;
                    rec.span("evalcore.transform", score, op, |_| {
                        ctx.transform(t.dataset, subset, method, eps)
                    })
                    .map(|cached| cached.series.clone())
                };
                score_scenario_with(
                    model.as_ref(),
                    &ds.split.train,
                    &ds.split.test,
                    &compressors,
                    &config.error_bounds,
                    config.eval_stride,
                    config.batch_size,
                    &mut provider,
                )
            })?;
            records(config, t, outcome)
        })
    }
}

impl GridTask for Traced<'_, CompressionTask> {
    type Output = CompressionRecord;

    fn coord(&self) -> TaskCoord {
        self.task.coord()
    }

    fn family(&self) -> &'static str {
        self.task.family()
    }

    /// The steps of `CompressionTask::run`.
    fn run(&self, ctx: &GridContext) -> Result<CompressionRecord, ScenarioError> {
        let (rec, op, t) = (self.rec, self.op, &self.task);
        rec.span("evalcore.task", 0, op, |root| {
            let ds = rec.span("evalcore.try_dataset", root, op, |_| ctx.try_dataset(t.dataset))?;
            let tr = rec.span("evalcore.transform", root, op, |_| {
                ctx.transform(t.dataset, Subset::Full, t.method, t.epsilon)
            })?;
            Ok(rec.span("tsdata.metrics", root, op, |_| {
                let raw = ds.series.target().values();
                let decoded = tr.series.target().values();
                CompressionRecord {
                    dataset: t.dataset,
                    method: t.method,
                    epsilon: t.epsilon,
                    te_nrmse: nrmse(raw, decoded),
                    te_rmse: rmse(raw, decoded),
                    cr: compression_ratio(ds.raw_size, tr.stats.size_bytes),
                    segments: tr.stats.num_segments,
                }
            }))
        })
    }
}

fn method_named(config: &GridConfig, name: &'static str) -> Result<Method, ScenarioError> {
    config
        .methods
        .iter()
        .copied()
        .find(|m| m.name() == name)
        .ok_or(ScenarioError::UnknownMethod(name))
}

/// The baseline record followed by one record per transformed cell, as
/// the forecast grid emits them.
fn records(
    config: &GridConfig,
    t: &ForecastTask,
    outcome: ScenarioOutcome,
) -> Result<Vec<ForecastRecord>, ScenarioError> {
    let record = |method, epsilon, metrics| ForecastRecord {
        dataset: t.dataset,
        model: t.model,
        method,
        epsilon,
        seed: t.seed,
        metrics,
    };
    let mut out = vec![record(None, 0.0, outcome.baseline)];
    for (name, eps, metrics) in outcome.transformed {
        out.push(record(Some(method_named(config, name)?), eps, metrics));
    }
    Ok(out)
}
