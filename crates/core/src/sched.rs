//! The grid engine's work queue and its deterministic chaos harness.
//!
//! `run` (crate-internal) is the execution substrate underneath
//! [`crate::engine::Engine`], the one pool API. A grid's task list is
//! known before its first task runs, so there is nothing to submit:
//! the caller passes a **dispatch order** (a permutation of the task
//! indices), and workers claim its positions from one shared atomic
//! cursor. A worker exits once the cursor is past the end and the
//! rescue queue is empty; no worker ever parks or polls for work. The
//! engine chooses the order (the first task of each dataset, then the
//! rest in task order; see [`crate::engine::Engine::run_with_stats`]).
//!
//! Two hard invariants, both exercised by the chaos suite
//! (`crates/core/tests/engine_chaos.rs`):
//!
//! * **Exactly-once execution** — every task index runs exactly once,
//!   no matter how workers are killed, stalled, or slowed. A killed
//!   worker hands its in-flight task to the rescue queue before dying,
//!   and workers pop that queue before the cursor. A post-join recovery
//!   pass on the caller thread runs anything that still never executed
//!   (e.g. when *every* worker died), so zero tasks are lost under any
//!   schedule.
//! * **Deterministic assembly** — results land in per-index slots, so
//!   the returned vector is in task order and byte-identical across
//!   worker counts, dispatch orders, and chaos schedules.
//!
//! [`ChaosSchedule`] scripts fault injection deterministically: events
//! are keyed by *task index* (not worker or wall clock), generated
//! either explicitly ([`ChaosSchedule::scripted`]) or from a seed via
//! the same Lcg64 generator the fuzz harness uses
//! ([`ChaosSchedule::seeded`]), and each fires exactly once — a task
//! rescued from a kill is not re-killed when it is picked up again.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use compression::mutate::Lcg64;

/// One scripted fault. Events are injected at the moment a worker
/// picks up the matching task index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The worker hands the task to the rescue queue and dies (thread
    /// exits). The task is *not* lost: a sibling picks it off the rescue
    /// queue, or the post-join recovery pass runs it inline.
    Kill,
    /// The worker sleeps this many milliseconds while *holding* the
    /// task before running it, so the task finishes late while its
    /// siblings move on through the dispatch order.
    StallMs(u64),
    /// The worker runs the task, then sleeps this many milliseconds — a
    /// persistently slow worker whose siblings claim the tasks it would
    /// have taken.
    SlowMs(u64),
    /// The per-task completion callback panics after the task ran. The
    /// engine must trap it (a regression for the `on_done` escape).
    CallbackPanic,
}

/// A deterministic fault schedule: at most one [`ChaosEvent`] per task
/// index, each firing exactly once. Keying by task index (not worker id
/// or wall clock) is what makes schedules replayable across thread
/// counts.
#[derive(Debug, Default)]
pub struct ChaosSchedule {
    events: HashMap<usize, (ChaosEvent, AtomicBool)>,
}

impl ChaosSchedule {
    /// Builds a schedule from explicit `(task index, event)` pairs.
    /// A later duplicate of an index replaces the earlier event.
    pub fn scripted<I: IntoIterator<Item = (usize, ChaosEvent)>>(events: I) -> Self {
        ChaosSchedule {
            events: events.into_iter().map(|(i, e)| (i, (e, AtomicBool::new(false)))).collect(),
        }
    }

    /// Generates a schedule for `n_tasks` tasks from a seed, using the
    /// same Lcg64 generator the fuzz harness replays
    /// ([`compression::mutate`]). Roughly `intensity_pct`% of tasks get
    /// an event, split across all four kinds; sleeps are 1–4 ms so
    /// schedules stay test-friendly. Same `(seed, n_tasks,
    /// intensity_pct)` ⇒ identical schedule.
    pub fn seeded(seed: u64, n_tasks: usize, intensity_pct: usize) -> Self {
        let mut rng = Lcg64::new(seed);
        let mut events = HashMap::new();
        for i in 0..n_tasks {
            if rng.below(100) >= intensity_pct {
                continue;
            }
            let event = match rng.below(4) {
                0 => ChaosEvent::Kill,
                1 => ChaosEvent::StallMs(1 + rng.below(4) as u64),
                2 => ChaosEvent::SlowMs(1 + rng.below(4) as u64),
                _ => ChaosEvent::CallbackPanic,
            };
            events.insert(i, (event, AtomicBool::new(false)));
        }
        ChaosSchedule { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the event for `index`, if one is scheduled and has not
    /// fired yet. One-shot: the second pickup of a kill-rescued task
    /// sees `None` and runs normally.
    fn take(&self, index: usize) -> Option<ChaosEvent> {
        let (event, fired) = self.events.get(&index)?;
        if fired.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(*event)
    }
}

/// Counters from one scheduler run. All values are exact.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Workers that died to a [`ChaosEvent::Kill`]. Each one handed its
    /// task to the rescue queue, and the task ran later, exactly once.
    pub worker_deaths: u64,
    /// Tasks run by the post-join recovery pass on the caller thread.
    pub rescued: u64,
    /// Completion callbacks that panicked and were trapped (filled in
    /// by the engine, which owns the callback trap).
    pub callback_panics: u64,
}

/// Runs `exec(i, _)` for every task index in `order` over `workers`
/// workers, returning the results **in task order** (index `i` of the
/// result is task `i`, whatever the dispatch order) plus the run's
/// [`RunStats`].
///
/// * `order` is the dispatch order, a permutation of `0..order.len()`:
///   workers claim its positions front to back from one shared cursor.
/// * `exec(i, inject_callback_panic)` must be **total** (trap its own
///   panics); the bool forwards a [`ChaosEvent::CallbackPanic`] for the
///   engine's callback trap to exercise.
/// * The call never fails and never drops a task.
pub(crate) fn run<R, E>(
    order: &[usize],
    workers: usize,
    chaos: Option<&ChaosSchedule>,
    exec: E,
) -> (Vec<R>, RunStats)
where
    R: Send,
    E: Fn(usize, bool) -> R + Sync,
{
    let n = order.len();
    // At least one worker, and none without a task (an empty run spawns
    // nothing).
    let workers = workers.max(1).min(n);
    let cursor = AtomicUsize::new(0);
    // Kill-rescued task indices, popped before the cursor. Bounded by
    // the number of kill events in the schedule.
    let rescue: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    // Per-index result slots; every slot is `Some` once the run ends.
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let deaths = AtomicU64::new(0);

    let complete = |i: usize, result: R| {
        results.lock().expect("results lock never poisoned")[i] = Some(result);
    };

    // One worker: rescued tasks first (they must not starve), then the
    // next position of the dispatch order. Each worker reads at most one
    // position past the end, so the cursor cannot overflow. `Relaxed`
    // suffices: the cursor publishes no data (the order is immutable, and
    // results reach the caller through the slot mutex and the join).
    let worker = || loop {
        let rescued = rescue.lock().expect("rescue lock never poisoned").pop_front();
        let Some(i) =
            rescued.or_else(|| order.get(cursor.fetch_add(1, Ordering::Relaxed)).copied())
        else {
            return;
        };
        let event = chaos.and_then(|c| c.take(i));
        if let Some(ChaosEvent::Kill) = event {
            // Killed at pickup: hand the task to the rescue queue so a
            // sibling (or the recovery pass) runs it, then die.
            rescue.lock().expect("rescue lock never poisoned").push_back(i);
            deaths.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine_worker_deaths_total", &[], 1);
            return;
        }
        if let Some(ChaosEvent::StallMs(ms)) = event {
            std::thread::sleep(Duration::from_millis(ms));
        }
        complete(i, exec(i, matches!(event, Some(ChaosEvent::CallbackPanic))));
        if let Some(ChaosEvent::SlowMs(ms)) = event {
            std::thread::sleep(Duration::from_millis(ms));
        }
    };

    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| worker());
        }
    })
    .expect("scheduler workers never panic (tasks are trapped)");

    // Recovery pass: any index that never executed (every worker died,
    // or a kill raced the last worker's exit) runs here, inline, so the
    // zero-lost-task guarantee is unconditional. Worker-level chaos
    // events make no sense on the caller thread, so a pending event is
    // consumed (keeping the one-shot accounting intact) but only a
    // callback-panic injection is honoured.
    let missing: Vec<usize> = {
        let slots = results.lock().expect("results lock never poisoned");
        (0..n).filter(|&i| slots[i].is_none()).collect()
    };
    let rescued = missing.len() as u64;
    for i in missing {
        let inject = matches!(chaos.and_then(|c| c.take(i)), Some(ChaosEvent::CallbackPanic));
        complete(i, exec(i, inject));
    }
    if rescued > 0 {
        telemetry::counter_add("engine_tasks_rescued_total", &[], rescued);
    }

    let stats =
        RunStats { worker_deaths: deaths.load(Ordering::Relaxed), rescued, callback_panics: 0 };
    let results = results
        .into_inner()
        .expect("results lock never poisoned")
        .into_iter()
        .map(|slot| slot.expect("every task index executed exactly once"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn results_in_task_order_for_any_geometry() {
        let reversed: Vec<usize> = (0..100).rev().collect();
        for workers in [1, 2, 4, 8] {
            for order in [identity(100), reversed.clone()] {
                let (out, stats) = run(&order, workers, None, |i, _| i * 2);
                assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "{workers} workers");
                assert_eq!(stats, RunStats::default());
            }
        }
    }

    #[test]
    fn zero_tasks_spawns_nothing() {
        let (out, stats) = run(&[], 4, None, |i, _| i);
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn each_task_executes_exactly_once() {
        let counts: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let (out, _) =
            run(&identity(200), 4, None, |i, _| counts[i].fetch_add(1, Ordering::Relaxed));
        assert_eq!(out.len(), 200);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} must run exactly once");
        }
    }

    #[test]
    fn kill_schedule_loses_no_tasks() {
        // Schedule more kills than workers: the survivors plus the
        // recovery pass still run everything.
        let chaos = ChaosSchedule::scripted((0..6).map(|k| (k * 7, ChaosEvent::Kill)));
        let (out, stats) = run(&identity(50), 2, Some(&chaos), |i, _| i + 1);
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
        assert!(stats.worker_deaths <= 2, "only 2 workers existed to kill");
        assert!(stats.worker_deaths >= 1, "the first kill event always fires");
    }

    #[test]
    fn lone_worker_killed_at_first_task_is_recovered_on_the_caller() {
        // The only worker dies at its first pickup, so the caller
        // thread's recovery pass runs every task.
        const N: usize = 20;
        let exec = |i: usize, _| format!("task {i}");
        let (clean, _) = run(&identity(N), 1, None, exec);
        let chaos = ChaosSchedule::scripted([(0, ChaosEvent::Kill)]);
        let (out, stats) = run(&identity(N), 1, Some(&chaos), exec);
        assert_eq!(out, clean);
        assert_eq!(stats.worker_deaths, 1);
        assert_eq!(stats.rescued, N as u64);
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let a = ChaosSchedule::seeded(42, 500, 20);
        let b = ChaosSchedule::seeded(42, 500, 20);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for i in 0..500 {
            assert_eq!(a.take(i), b.take(i), "event at {i}");
        }
        let c = ChaosSchedule::seeded(43, 500, 20);
        let diverges = (0..500).any(|i| ChaosSchedule::seeded(42, 500, 20).take(i) != c.take(i));
        assert!(diverges, "different seeds must give different schedules");
    }

    #[test]
    fn chaos_events_fire_once() {
        let chaos = ChaosSchedule::scripted([(3, ChaosEvent::Kill)]);
        assert_eq!(chaos.take(3), Some(ChaosEvent::Kill));
        assert_eq!(chaos.take(3), None, "one-shot: a rescued task is not re-killed");
        assert_eq!(chaos.take(4), None);
    }
}
