//! The sharded work-stealing scheduler core and its deterministic chaos
//! harness.
//!
//! `run_sharded` (crate-internal) is the execution substrate underneath
//! [`crate::engine::Engine`], the one pool API: task indices are
//! partitioned into **shards** (keyed by the caller — the engine shards
//! by [`crate::engine::TaskCoord`], so all tasks of one dataset/series
//! land on the same shard and stay cache-warm), each shard owns a
//! **bounded** queue built on the vendored crossbeam MPMC channel, and
//! workers drain their home shard first, then **steal** from sibling
//! shards when idle. Submission applies **backpressure**: a full shard
//! blocks the submitter until a worker drains it, so the scheduler never
//! materialises an unbounded internal task vector.
//!
//! Three hard invariants, all exercised by the chaos suite
//! (`crates/core/tests/engine_chaos.rs`):
//!
//! * **Exactly-once execution** — every task index runs exactly once,
//!   no matter how workers are killed, stalled, or slowed. A killed
//!   worker re-queues its in-flight task onto the rescue queue before
//!   dying; a post-join recovery pass on the caller thread runs
//!   anything that still never executed (e.g. when *every* worker
//!   died), so zero tasks are lost under any schedule.
//! * **Deterministic assembly** — results land in per-index slots, so
//!   the returned vector is in task order and byte-identical across
//!   worker counts, shard counts, and steal schedules.
//! * **Bounded occupancy** — at most `shards × capacity` tasks are
//!   queued at any instant (each queue is a bounded channel); the peak
//!   is tracked in [`RunStats::peak_queue_depth`] and exported as the
//!   `engine_queue_depth` gauge.
//!
//! [`ChaosSchedule`] scripts fault injection deterministically: events
//! are keyed by *task index* (not worker or wall clock), generated
//! either explicitly ([`ChaosSchedule::scripted`]) or from a seed via
//! the same Lcg64 generator the fuzz harness uses
//! ([`ChaosSchedule::seeded`]), and each fires exactly once — a task
//! re-queued by a kill is not re-killed on its second dequeue.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use compression::mutate::Lcg64;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

/// Default per-shard bounded-queue capacity. Small on purpose: the grid
/// holds its task list in the caller's slice, so queued indices only
/// need to cover scheduling slack, not the whole grid.
pub const DEFAULT_QUEUE_CAPACITY: usize = 32;

/// One scripted fault. Events are injected at the moment a worker
/// dequeues the matching task index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The dequeuing worker re-queues the task and dies (thread exits).
    /// The task is *not* lost: a sibling picks it off the rescue queue,
    /// or the post-join recovery pass runs it inline.
    Kill,
    /// The worker sleeps this many milliseconds while *holding* the
    /// task before running it, starving its shard (queue occupancy
    /// builds behind it).
    StallMs(u64),
    /// The worker runs the task, then sleeps this many milliseconds —
    /// a persistently slow worker that forces siblings to steal.
    SlowMs(u64),
    /// The per-task completion callback panics after the task ran. The
    /// engine must trap it (a regression for the `on_done` escape).
    CallbackPanic,
}

/// A deterministic fault schedule: at most one [`ChaosEvent`] per task
/// index, each firing exactly once. Keying by task index (not worker id
/// or wall clock) is what makes schedules replayable across thread and
/// shard counts.
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

    /// Number of scheduled events matching a predicate (for test
    /// assertions on seeded schedules).
    pub fn count(&self, pred: impl Fn(ChaosEvent) -> bool) -> usize {
        self.events.values().filter(|(e, _)| pred(*e)).count()
    }

    /// Consumes the event for `index`, if one is scheduled and has not
    /// fired yet. One-shot: the second dequeue of a kill-requeued task
    /// sees `None` and runs normally.
    pub fn take(&self, index: usize) -> Option<ChaosEvent> {
        let (event, fired) = self.events.get(&index)?;
        if fired.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(*event)
    }
}

/// Counters from one scheduler run. All values are exact (not
/// sampled) except `peak_queue_depth`, which is sampled at submission
/// points — so it never over-reports and is always ≤ shards × capacity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks a worker dequeued from a sibling shard's queue.
    pub steals: u64,
    /// Peak total occupancy across all shard queues.
    pub peak_queue_depth: usize,
    /// Workers that died to a [`ChaosEvent::Kill`].
    pub worker_deaths: u64,
    /// Tasks re-queued by dying workers (each ran later, exactly once).
    pub requeued: u64,
    /// Tasks run by the post-join recovery pass on the caller thread.
    pub rescued: u64,
    /// Tasks the submitter ran inline because every worker was dead.
    pub inline_runs: u64,
    /// Completion callbacks that panicked and were trapped (filled in
    /// by the engine, which owns the callback trap).
    pub callback_panics: u64,
}

/// Shared state of one run (everything workers touch).
struct PoolShared<'a, R> {
    /// One bounded receiver per shard (indices travel, not tasks).
    shards: &'a [Receiver<usize>],
    /// Kill-requeued task indices; drained before any queue is polled.
    /// Bounded by the number of kill events in the schedule.
    rescue: Mutex<VecDeque<usize>>,
    /// Per-index result slots; every slot is `Some` once the run ends.
    results: Mutex<Vec<Option<R>>>,
    /// Set once the submitter has placed (or inlined) every task.
    done: AtomicBool,
    /// Live worker count (the submitter goes inline when it hits zero).
    alive: AtomicUsize,
    steals: AtomicU64,
    deaths: AtomicU64,
    requeued: AtomicU64,
    chaos: Option<&'a ChaosSchedule>,
}

impl<R> PoolShared<'_, R> {
    fn rescue_pop(&self) -> Option<usize> {
        self.rescue.lock().expect("rescue lock never poisoned").pop_front()
    }

    /// Records a completed result into its slot.
    fn complete(&self, index: usize, result: R) {
        self.results.lock().expect("results lock never poisoned")[index] = Some(result);
    }

    /// Pops a task index: rescue queue first (requeued tasks must not
    /// starve), then the home shard, then a steal sweep over siblings.
    /// Returns `(index, stolen)`.
    fn pop(&self, home: usize) -> Option<(usize, bool)> {
        if let Some(i) = self.rescue_pop() {
            return Some((i, false));
        }
        if let Ok(i) = self.shards[home].try_recv() {
            return Some((i, false));
        }
        for d in 1..self.shards.len() {
            let s = (home + d) % self.shards.len();
            if let Ok(i) = self.shards[s].try_recv() {
                return Some((i, true));
            }
        }
        None
    }

    /// Whether submission has finished and every queue is drained. Once
    /// true it stays true for queue contents (no further sends happen),
    /// so idle workers can exit. A kill racing this check can still
    /// orphan a rescue entry; the post-join recovery pass covers it.
    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire)
            && self.shards.iter().all(|rx| rx.is_empty())
            && self.rescue.lock().expect("rescue lock never poisoned").is_empty()
    }
}

/// Runs `exec(i, _)` for every `i in 0..n` over `workers` work-stealing
/// workers and `shards` bounded queues of `capacity` each, returning the
/// results **in task order** plus the run's [`RunStats`].
///
/// * `shard_of(i)` maps a task to its shard key (reduced modulo the
///   shard count); tasks sharing a key share a queue and, under low
///   steal pressure, a worker.
/// * `exec(i, inject_callback_panic)` must be **total** (trap its own
///   panics); the bool forwards a [`ChaosEvent::CallbackPanic`] for the
///   engine's callback trap to exercise.
/// * A full queue blocks submission until a worker drains it; when every
///   worker is dead the submitter runs the task inline. The call never
///   fails and never drops a task.
pub(crate) fn run_sharded<R, K, E>(
    n: usize,
    workers: usize,
    shards: usize,
    capacity: usize,
    chaos: Option<&ChaosSchedule>,
    shard_of: K,
    exec: E,
) -> (Vec<R>, RunStats)
where
    R: Send,
    K: Fn(usize) -> u64 + Sync,
    E: Fn(usize, bool) -> R + Sync,
{
    if n == 0 {
        return (Vec::new(), RunStats::default());
    }
    let workers = workers.max(1).min(n);
    let shards = shards.max(1).min(n);
    let capacity = capacity.max(1);
    let (senders, receivers): (Vec<Sender<usize>>, Vec<Receiver<usize>>) =
        (0..shards).map(|_| bounded::<usize>(capacity)).unzip();
    let shared = PoolShared {
        shards: &receivers,
        rescue: Mutex::new(VecDeque::new()),
        results: Mutex::new((0..n).map(|_| None).collect()),
        done: AtomicBool::new(false),
        alive: AtomicUsize::new(workers),
        steals: AtomicU64::new(0),
        deaths: AtomicU64::new(0),
        requeued: AtomicU64::new(0),
        chaos,
    };
    let inline_runs = AtomicU64::new(0);
    let peak_depth = AtomicUsize::new(0);

    // Runs one task on the *caller* thread (submitter fallback or the
    // post-join recovery pass). Worker-level chaos events make no sense
    // here — there is no worker to kill or stall — so the event is
    // consumed (keeping the one-shot accounting intact) but only a
    // callback-panic injection is honoured.
    let run_inline = |i: usize| {
        let inject =
            matches!(shared.chaos.and_then(|c| c.take(i)), Some(ChaosEvent::CallbackPanic));
        shared.complete(i, exec(i, inject));
    };

    // Runs one dequeued task, applying any chaos event scheduled for it.
    // Returns `false` when the worker must die (chaos kill).
    let run_task = |i: usize| {
        let event = shared.chaos.and_then(|c| c.take(i));
        if let Some(ChaosEvent::Kill) = event {
            // Killed at dequeue: hand the task to the rescue queue so a
            // sibling (or the recovery pass) runs it, then die.
            shared.rescue.lock().expect("rescue lock never poisoned").push_back(i);
            shared.requeued.fetch_add(1, Ordering::Relaxed);
            shared.deaths.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("engine_worker_deaths_total", &[], 1);
            return false;
        }
        if let Some(ChaosEvent::StallMs(ms)) = event {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let inject = matches!(event, Some(ChaosEvent::CallbackPanic));
        shared.complete(i, exec(i, inject));
        if let Some(ChaosEvent::SlowMs(ms)) = event {
            std::thread::sleep(Duration::from_millis(ms));
        }
        true
    };

    crossbeam::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let run_task = &run_task;
            scope.spawn(move |_| {
                let home = w % shards;
                loop {
                    match shared.pop(home) {
                        Some((i, stolen)) => {
                            if stolen {
                                shared.steals.fetch_add(1, Ordering::Relaxed);
                                telemetry::counter_add("engine_steals_total", &[], 1);
                            }
                            if !run_task(i) {
                                shared.alive.fetch_sub(1, Ordering::Relaxed);
                                return; // chaos kill: this worker is dead
                            }
                        }
                        None => {
                            if shared.finished() {
                                break;
                            }
                            // Idle: block briefly on the home shard so a
                            // submission wakes us without a spin, then
                            // re-sweep rescue and siblings.
                            match shared.shards[home].recv_timeout(Duration::from_millis(1)) {
                                Ok(i) => {
                                    if !run_task(i) {
                                        shared.alive.fetch_sub(1, Ordering::Relaxed);
                                        return;
                                    }
                                }
                                Err(RecvTimeoutError::Timeout)
                                | Err(RecvTimeoutError::Disconnected) => {}
                            }
                        }
                    }
                }
                shared.alive.fetch_sub(1, Ordering::Relaxed);
            });
        }

        // Submission runs on the caller thread, inside the scope: one
        // bounded send per task, so at most shards × capacity indices
        // are ever buffered.
        for i in 0..n {
            let shard = (shard_of(i) % shards as u64) as usize;
            loop {
                match senders[shard].try_send(i) {
                    Ok(()) => {
                        // Sampled occupancy: each queue's len is read
                        // under its own lock, so the sum never exceeds
                        // shards × capacity.
                        let depth: usize = senders.iter().map(|tx| tx.len()).sum();
                        peak_depth.fetch_max(depth, Ordering::Relaxed);
                        telemetry::gauge_set("engine_queue_depth", &[], depth as f64);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        unreachable!("receivers live until the scope joins")
                    }
                    Err(TrySendError::Full(_)) => {
                        if shared.alive.load(Ordering::Relaxed) == 0 {
                            // Every worker is dead; the submitter is the
                            // only thread left. Run inline rather than
                            // spin on a queue nobody will drain.
                            run_inline(i);
                            inline_runs.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        // Block: wait for a worker to drain the shard,
                        // then retry. Occupancy stays bounded.
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
        }
        shared.done.store(true, Ordering::Release);
    })
    .expect("scheduler workers never panic (tasks are trapped)");

    // Recovery pass: any index that never executed (a kill orphaned it
    // with no surviving worker to rescue it) runs here, inline, so the
    // zero-lost-task guarantee is unconditional.
    let missing: Vec<usize> = {
        let slots = shared.results.lock().expect("results lock never poisoned");
        (0..n).filter(|&i| slots[i].is_none()).collect()
    };
    let rescued = missing.len() as u64;
    for i in missing {
        run_inline(i);
    }
    if rescued > 0 {
        telemetry::counter_add("engine_tasks_rescued_total", &[], rescued);
    }
    telemetry::gauge_set("engine_queue_depth", &[], 0.0);

    let stats = RunStats {
        steals: shared.steals.load(Ordering::Relaxed),
        peak_queue_depth: peak_depth.load(Ordering::Relaxed),
        worker_deaths: shared.deaths.load(Ordering::Relaxed),
        requeued: shared.requeued.load(Ordering::Relaxed),
        rescued,
        inline_runs: inline_runs.load(Ordering::Relaxed),
        callback_panics: 0,
    };
    let results = shared
        .results
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
    use std::sync::atomic::AtomicU64;

    fn double(n: usize, workers: usize, shards: usize, cap: usize) -> (Vec<usize>, RunStats) {
        run_sharded(n, workers, shards, cap, None, |i| i as u64, |i, _| i * 2)
    }

    #[test]
    fn results_in_task_order_for_any_geometry() {
        for (workers, shards, cap) in [(1, 1, 1), (2, 2, 2), (4, 2, 3), (8, 8, 32), (3, 7, 1)] {
            let (out, stats) = double(100, workers, shards, cap);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
            assert!(stats.peak_queue_depth <= shards.min(100) * cap.max(1));
        }
    }

    #[test]
    fn zero_tasks_spawns_nothing() {
        let (out, stats) = double(0, 4, 4, 8);
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn each_task_executes_exactly_once() {
        let counts: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let (out, _) = run_sharded(
            200,
            4,
            4,
            4,
            None,
            |i| (i / 10) as u64,
            |i, _| counts[i].fetch_add(1, Ordering::Relaxed),
        );
        assert_eq!(out.len(), 200);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} must run exactly once");
        }
    }

    #[test]
    fn kill_schedule_loses_no_tasks() {
        // Schedule more kills than workers: the survivors plus the
        // inline submitter plus the recovery pass still run everything.
        let chaos = ChaosSchedule::scripted((0..6).map(|k| (k * 7, ChaosEvent::Kill)));
        let (out, stats) = run_sharded(50, 2, 2, 2, Some(&chaos), |i| i as u64, |i, _| i + 1);
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
        assert!(stats.worker_deaths <= 2, "only 2 workers existed to kill");
        assert!(stats.worker_deaths >= 1, "the first kill event always fires");
        assert_eq!(stats.requeued, stats.worker_deaths);
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
        assert_eq!(chaos.take(3), None, "one-shot: a requeued task is not re-killed");
        assert_eq!(chaos.take(4), None);
    }
}
