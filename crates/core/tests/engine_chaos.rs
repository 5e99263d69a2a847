//! The deterministic chaos suite: seeded fault schedules (worker kills,
//! stalls, slow workers, callback panics) injected into the engine's
//! work queue must never change what a run produces — outcome vectors
//! and failure coordinates stay byte-identical to a clean
//! single-threaded run, and no task is lost. The schedules are
//! replayable (Lcg64 by task index), so every failure here is
//! reproducible from its seed.

use evalcore::results::forecast_csv;
use evalcore::scenario::ScenarioError;
use evalcore::sched::{ChaosEvent, ChaosSchedule};
use evalcore::{Engine, ForecastTask, GridConfig, GridContext, GridTask, TaskCoord, TaskOutcome};
use forecast::model::ModelKind;
use proptest::prelude::*;
use tsdata::datasets::{DatasetKind, ALL_DATASETS};

/// A cheap deterministic task whose coordinates walk the datasets in
/// blocks of 50 indices (so the engine dispatches each block's first
/// task early and the dispatch order is not the task order) and whose
/// behaviour is scripted by index: most succeed, some fail, some panic.
struct CheapTask {
    index: usize,
}

impl CheapTask {
    fn many(n: usize) -> Vec<CheapTask> {
        (0..n).map(|index| CheapTask { index }).collect()
    }
}

impl GridTask for CheapTask {
    type Output = u64;

    fn coord(&self) -> TaskCoord {
        TaskCoord {
            seed: Some(self.index as u64),
            ..TaskCoord::dataset(ALL_DATASETS[(self.index / 50) % ALL_DATASETS.len()])
        }
    }

    fn run(&self, _ctx: &GridContext) -> Result<u64, ScenarioError> {
        match self.index % 11 {
            3 => Err(ScenarioError::NoWindows),
            7 => panic!("scripted task panic at {}", self.index),
            _ => Ok((self.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

fn cheap_ctx() -> GridContext {
    GridContext::new(GridConfig::smoke())
}

fn outcome_strings<R: std::fmt::Debug>(outcomes: &[TaskOutcome<R>]) -> Vec<String> {
    outcomes.iter().map(|o| format!("{o:?}")).collect()
}

/// Coordinates of every non-Ok task, in task order — the "which cells
/// failed" view a grid report surfaces.
fn failure_coords<T: GridTask>(tasks: &[T], outcomes: &[TaskOutcome<T::Output>]) -> Vec<String> {
    tasks
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| !o.is_ok())
        .map(|(t, _)| t.coord().to_string())
        .collect()
}

#[test]
fn seeded_schedule_sweep_preserves_outcomes_and_loses_no_tasks() {
    const N: usize = 300;
    let ctx = cheap_ctx();
    let tasks = CheapTask::many(N);
    let clean = outcome_strings(&Engine::new(&ctx).threads(1).run(&tasks));

    let mut total_events = 0usize;
    let mut total_kills = 0u64;
    for seed in [0xC4A05u64, 7, 2024, 0xDEAD_BEEF] {
        for threads in [2, 4, 8] {
            let schedule = ChaosSchedule::seeded(seed, N, 30);
            total_events += schedule.len();
            let (outcomes, stats) =
                Engine::new(&ctx).threads(threads).chaos_schedule(schedule).run_with_stats(&tasks);
            assert_eq!(outcomes.len(), N, "zero lost tasks (seed {seed}, {threads} threads)");
            assert_eq!(
                outcome_strings(&outcomes),
                clean,
                "chaos run must be byte-identical to the clean run \
                 (seed {seed}, {threads} threads)"
            );
            total_kills += stats.worker_deaths;
        }
    }
    assert!(total_events >= 1_000, "sweep must script ≥1k events, got {total_events}");
    assert!(total_kills >= 1, "the sweep must actually kill workers");
}

#[test]
fn every_chaos_event_kind_leaves_a_real_grid_csv_byte_identical() {
    // A real forecast grid (2 datasets × GBoost × 2 seeds = 4 tasks)
    // with one event of each kind scripted onto its four tasks: the
    // produced CSV must match the clean single-thread run exactly.
    let mut cfg = GridConfig::smoke();
    cfg.datasets = vec![DatasetKind::ETTm1, DatasetKind::ETTm2];
    cfg.models = vec![ModelKind::GBoost];
    cfg.seeds_simple = 2;
    let tasks = ForecastTask::enumerate(&cfg);
    assert_eq!(tasks.len(), 4);

    let clean_csv = {
        let ctx = GridContext::new(cfg.clone());
        let report = Engine::new(&ctx).threads(1).run_report(&tasks);
        assert!(report.failures.is_empty());
        forecast_csv(&report.records.into_iter().flatten().collect::<Vec<_>>())
    };

    let schedule = ChaosSchedule::scripted([
        (0, ChaosEvent::Kill),
        (1, ChaosEvent::StallMs(3)),
        (2, ChaosEvent::SlowMs(3)),
        (3, ChaosEvent::CallbackPanic),
    ]);
    let ctx = GridContext::new(cfg.clone());
    let engine = Engine::new(&ctx).threads(4).chaos_schedule(schedule);
    let (outcomes, stats) = engine.run_with_stats(&tasks);
    assert!(outcomes.iter().all(|o| o.is_ok()), "chaos must not fail grid tasks");
    assert_eq!(stats.worker_deaths, 1);
    assert_eq!(stats.callback_panics, 1);
    let records: Vec<_> = outcomes.into_iter().filter_map(TaskOutcome::ok).flatten().collect();
    assert_eq!(forecast_csv(&records), clean_csv, "chaos CSV must match the clean CSV");
}

#[test]
fn config_chaos_seed_threads_through_engine_new() {
    // GridConfig::chaos_seed (the `repro --chaos SEED` path) must reach
    // the engine and still produce identical outputs.
    let ctx = cheap_ctx();
    let tasks = CheapTask::many(80);
    let clean = outcome_strings(&Engine::new(&ctx).threads(1).run(&tasks));
    let mut cfg = GridConfig::smoke();
    cfg.chaos_seed = Some(41);
    cfg.threads = 4;
    let chaos_ctx = GridContext::new(cfg);
    assert!(!ChaosSchedule::seeded(41, 80, 20).is_empty(), "seed 41 schedules events");
    let outcomes = Engine::new(&chaos_ctx).run(&tasks);
    assert_eq!(outcome_strings(&outcomes), clean);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same chaos seed ⇒ identical outcome vector and identical failure
    /// coordinates, across 1, 2 and 8 threads.
    #[test]
    fn chaos_runs_are_deterministic_across_geometries(
        seed in any::<u64>(),
        intensity in 0usize..50,
    ) {
        const N: usize = 60;
        let ctx = cheap_ctx();
        let tasks = CheapTask::many(N);
        let mut reference: Option<(Vec<String>, Vec<String>)> = None;
        for threads in [1, 2, 8] {
            let (outcomes, _) = Engine::new(&ctx)
                .threads(threads)
                .chaos_schedule(ChaosSchedule::seeded(seed, N, intensity))
                .run_with_stats(&tasks);
            prop_assert_eq!(outcomes.len(), N);
            let view = (outcome_strings(&outcomes), failure_coords(&tasks, &outcomes));
            match &reference {
                None => reference = Some(view),
                Some(first) => {
                    prop_assert_eq!(&view.0, &first.0, "outcomes ({} threads)", threads);
                    prop_assert_eq!(&view.1, &first.1, "failure coords ({} threads)", threads);
                }
            }
        }
    }
}
