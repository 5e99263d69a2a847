//! The batching scheduler: work-conserving batching + admission control.
//!
//! Forecast jobs are counted by an inflight counter — when
//! [`SchedulerConfig::queue_depth`] jobs are queued or executing, the
//! next submit is rejected *before queueing* with
//! [`ServeError::Overloaded`], so memory stays bounded under any load.
//!
//! At most [`SchedulerConfig::workers`] batches execute at once, each on
//! a submitting thread. A submit that finds an
//! execution slot free runs its job at once, as a batch of one, on its own
//! thread. Otherwise the job joins one FIFO queue and its thread sleeps.
//! When a batch ends, its thread takes the oldest queued job together
//! with every queued job for the same registry entry, up to
//! [`SchedulerConfig::max_batch`], and hands that batch, with the slot,
//! to the thread whose job heads it; only an empty queue frees the slot.
//! Jobs queue only while every slot is busy, so the arrivals during an
//! in-flight batch form the next batch, no request waits for companions,
//! and running inline never overtakes a queued job. The batch's windows
//! are stacked into one `[n, input_len]` tensor for a single
//! [`Forecaster::predict_batch`] call — `n` requests pay one dispatch.
//! Rows come back to each requester bit-identical to a per-window
//! [`Forecaster::predict`] (the batch-identity contract pinned in
//! `forecast/tests/batch_identity.rs`).
//!
//! [`Forecaster::predict`]: forecast::Forecaster::predict
//! [`Forecaster::predict_batch`]: forecast::Forecaster::predict_batch

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crossbeam::channel::{self, Sender};
use neural::tensor::Tensor;
use telemetry::{counter_add, observe, secs};

use crate::registry::ModelEntry;
use crate::ServeError;

/// Occupancy histogram buckets (jobs per batch).
const OCCUPANCY_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Admission bound: maximum forecast jobs in flight (queued or
    /// executing).
    pub queue_depth: usize,
    /// Maximum jobs one `predict_batch` call takes.
    pub max_batch: usize,
    /// At most this many batches execute at once, each on a submitting
    /// thread.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { queue_depth: 256, max_batch: 64, workers: 2 }
    }
}

/// A queued job; its submitter sleeps on the other end of `reply`.
struct Job {
    entry: Arc<ModelEntry>,
    window: Vec<f64>,
    reply: Sender<Handoff>,
}

/// What wakes a queued job's submitter.
enum Handoff {
    /// Another thread ran the job: its row, or the batch's error.
    Done(Result<Vec<f64>, String>),
    /// The job heads the next batch, which its submitter now runs in the
    /// slot it is handed: the job's own entry and window, and the jobs
    /// that joined it.
    Run { entry: Arc<ModelEntry>, window: Vec<f64>, rest: Vec<Job> },
}

/// Cumulative scheduler counters (kept independently of the telemetry
/// registry so `stats` works even with telemetry disabled).
#[derive(Debug, Default)]
pub struct SchedulerStats {
    /// `predict_batch` calls made.
    pub batches: AtomicU64,
    /// Jobs that travelled inside those batches.
    pub batched_jobs: AtomicU64,
    /// Jobs rejected by admission control.
    pub rejected: AtomicU64,
}

/// The jobs waiting for a slot and the slots taken.
struct Queue {
    jobs: VecDeque<Job>,
    /// Batches executing now, at most `workers`. Jobs queue only while
    /// every slot is taken, and a slot frees only when `jobs` is empty.
    running: usize,
}

const QUEUE_NEVER_POISONED: &str = "no thread panics while holding the scheduler queue";

/// Removes the oldest job and every later job for the same registry
/// entry, up to `max_batch`; the other jobs keep their order.
fn take_batch(queue: &mut VecDeque<Job>, max_batch: usize) -> Option<Vec<Job>> {
    let first = queue.pop_front()?;
    let id = first.entry.id;
    let mut jobs = vec![first];
    let mut i = 0;
    while jobs.len() < max_batch && i < queue.len() {
        if queue[i].entry.id == id {
            jobs.push(queue.remove(i).expect("i is in bounds"));
        } else {
            i += 1;
        }
    }
    Some(jobs)
}

/// The batching scheduler.
pub struct Scheduler {
    queue: Mutex<Queue>,
    inflight: AtomicUsize,
    config: SchedulerConfig,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Creates the scheduler with every execution slot free.
    pub fn start(config: SchedulerConfig) -> Scheduler {
        assert!(config.queue_depth >= 1 && config.max_batch >= 1 && config.workers >= 1);
        Scheduler {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), running: 0 }),
            inflight: AtomicUsize::new(0),
            config,
            stats: SchedulerStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(QUEUE_NEVER_POISONED)
    }

    /// Submits one forecast job and blocks for its result, running its
    /// batch on this thread when a slot is free. A `window` that is not
    /// exactly `entry.input_len` long is rejected with a typed error
    /// before admission (it would otherwise panic a batch during
    /// staging). Fails fast with [`ServeError::Overloaded`] when
    /// `queue_depth` jobs are in flight; the admission slot is held by an
    /// RAII guard, so every exit — success, error, or panic — releases it.
    pub fn forecast(
        &self,
        entry: Arc<ModelEntry>,
        window: Vec<f64>,
    ) -> Result<Vec<f64>, ServeError> {
        if window.len() != entry.input_len {
            return Err(ServeError::Model(format!(
                "window length {} does not match model input_len {}",
                window.len(),
                entry.input_len
            )));
        }
        let depth = self.config.queue_depth;
        // Admission and the slot-or-queue choice share one critical
        // section, so every job counted in flight is queued or executing.
        let mut queue = self.lock();
        let Some(_admitted) = AdmissionGuard::try_acquire(&self.inflight, depth) else {
            drop(queue);
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            counter_add("serve_rejected_total", &[], 1);
            return Err(ServeError::Overloaded { depth });
        };
        let (entry, window, rest) = if queue.running < self.config.workers {
            queue.running += 1;
            drop(queue);
            (entry, window, Vec::new())
        } else {
            let (reply, reply_rx) = channel::bounded(1);
            queue.jobs.push_back(Job { entry, window, reply });
            drop(queue);
            match reply_rx.recv() {
                Ok(Handoff::Done(Ok(values))) => return Ok(values),
                Ok(Handoff::Done(Err(msg))) => return Err(ServeError::Model(msg)),
                Ok(Handoff::Run { entry, window, rest }) => (entry, window, rest),
                Err(_) => return Err(ServeError::ShuttingDown),
            }
        };
        let _slot = SlotGuard { scheduler: self };
        self.run_batch(&entry, window, rest).map_err(ServeError::Model)
    }

    /// Runs the batch of `window` for `entry` and the jobs in `rest`,
    /// replies to `rest`, and returns the first row.
    fn run_batch(
        &self,
        entry: &ModelEntry,
        window: Vec<f64>,
        rest: Vec<Job>,
    ) -> Result<Vec<f64>, String> {
        let n = 1 + rest.len();
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
        counter_add("serve_batches_total", &[], 1);
        counter_add("serve_batch_jobs_total", &[], n as u64);
        telemetry::global().metrics().observe_with(
            "serve_batch_occupancy",
            &[],
            &OCCUPANCY_BOUNDS,
            n as f64,
        );
        let (input_len, horizon) = (entry.input_len, entry.horizon);
        let mut windows = Tensor::zeros(n, input_len);
        let rows = std::iter::once(&window).chain(rest.iter().map(|job| &job.window));
        for (row, w) in windows.data_mut().chunks_mut(input_len).zip(rows) {
            row.copy_from_slice(w);
        }
        let started = Instant::now();
        // The model call is trapped: a panicking `predict_batch` must
        // become an error reply to every job in the batch, not an unwind
        // through the submitting thread's connection handler. (parking_lot
        // mutexes do not poison, so the entry stays usable.)
        let result = catch_unwind(AssertUnwindSafe(|| {
            let model = entry.model.lock();
            model.predict_batch(&windows)
        }));
        observe("serve_predict_seconds", &[("model", &entry.spec.model)], secs(started.elapsed()));
        let preds = match result {
            Ok(Ok(t)) if t.rows() == n && t.cols() == horizon => Ok(t),
            Ok(Ok(t)) => {
                Err(format!("predict_batch returned {:?}, expected [{n}, {horizon}]", t.shape()))
            }
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => {
                counter_add("serve_predict_panics_total", &[], 1);
                Err(format!("predict_batch panicked: {}", panic_text(payload.as_ref())))
            }
        };
        let row =
            |i: usize| preds.as_ref().map(|t| t.data()[i * horizon..(i + 1) * horizon].to_vec());
        for (i, job) in rest.into_iter().enumerate() {
            let _ = job.reply.send(Handoff::Done(row(i + 1).map_err(String::clone)));
        }
        row(0).map_err(String::clone)
    }
}

/// An occupied admission slot. Acquisition is one `fetch_add` with
/// losers backing out; release happens in `Drop`, so no early return,
/// `?`, or panic between admission and reply can leak the slot (the
/// leak class the old manual `fetch_add`/`fetch_sub` pairs allowed).
struct AdmissionGuard<'a> {
    inflight: &'a AtomicUsize,
}

impl<'a> AdmissionGuard<'a> {
    /// Reserves a slot if fewer than `depth` jobs are in flight.
    fn try_acquire(inflight: &'a AtomicUsize, depth: usize) -> Option<AdmissionGuard<'a>> {
        if inflight.fetch_add(1, Ordering::AcqRel) >= depth {
            inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(AdmissionGuard { inflight })
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A held execution slot. Its `Drop` — after a batch, an error or a
/// panic alike — passes the slot with the next queued batch to the
/// thread whose job heads it, or frees the slot when the queue is empty.
struct SlotGuard<'a> {
    scheduler: &'a Scheduler,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let scheduler = self.scheduler;
        let mut queue = scheduler.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(mut jobs) = take_batch(&mut queue.jobs, scheduler.config.max_batch) else {
            queue.running -= 1;
            return;
        };
        drop(queue);
        let Job { entry, window, reply } = jobs.remove(0);
        // The head's submitter sleeps in `recv` until this send, so the
        // receiver is alive.
        let _ = reply.send(Handoff::Run { entry, window, rest: jobs });
    }
}

/// Extracts a readable message from a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
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
    use crate::registry::{ModelEntry, ModelSpec};
    use evalcore::artifact::ArtifactKey;
    use forecast::model::Forecaster;
    use forecast::{build_model, BuildOptions, ForecastError, Profile};
    use std::sync::Condvar;
    use std::time::{Duration, Instant};
    use tsdata::datasets::{generate, DatasetKind, GenOptions};
    use tsdata::series::MultiSeries;
    use tsdata::split::{split, SplitSpec};

    const INPUT_LEN: usize = 16;
    const HORIZON: usize = 4;

    fn entry_with(id: u64, model: Box<dyn Forecaster>) -> Arc<ModelEntry> {
        let spec = ModelSpec {
            dataset: "ETTm1".into(),
            model: "DLinear".into(),
            method: None,
            eps_bits: None,
        };
        let key = ArtifactKey {
            dataset: "ETTm1".into(),
            model: "DLinear".into(),
            seed: 40,
            profile: "Fast".into(),
            method: None,
            eps_bits: None,
            input_len: INPUT_LEN,
            horizon: HORIZON,
            len: Some(360),
            channels: Some(1),
            data_seed: 7,
        };
        Arc::new(ModelEntry {
            spec,
            key,
            model: parking_lot::Mutex::new(model),
            input_len: INPUT_LEN,
            horizon: HORIZON,
            bytes: 1024,
            id,
        })
    }

    fn fitted_entry(id: u64) -> Arc<ModelEntry> {
        let data =
            generate(DatasetKind::ETTm1, GenOptions { len: Some(360), channels: Some(1), seed: 7 });
        let s = split(&data, SplitSpec::default()).expect("360 points split cleanly");
        let mut model = build_model(
            forecast::ModelKind::DLinear,
            BuildOptions {
                input_len: INPUT_LEN,
                horizon: HORIZON,
                season: None,
                seed: 40,
                profile: Profile::Fast,
            },
        );
        model.fit(&s.train, &s.val).expect("tiny fit succeeds");
        entry_with(id, model)
    }

    /// Spins until `cond` holds; the deadline turns a lost wake-up into a
    /// test failure instead of a hang.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn scheduled_forecasts_match_direct_predict_bitwise() {
        let entry = fitted_entry(1);
        let window: Vec<f64> = (0..INPUT_LEN).map(|i| (i as f64 * 0.25).sin()).collect();
        let direct =
            entry.model.lock().predict(std::slice::from_ref(&window)).expect("direct predict");
        let sched = Scheduler::start(SchedulerConfig::default());
        let served = sched.forecast(Arc::clone(&entry), window).expect("forecast succeeds");
        assert_eq!(served.len(), HORIZON);
        for (s, d) in served.iter().zip(direct.iter()) {
            assert_eq!(s.to_bits(), d.to_bits(), "served row must be bit-identical");
        }
        assert_eq!(sched.stats().batches.load(Ordering::Relaxed), 1);
        assert_eq!(sched.stats().batched_jobs.load(Ordering::Relaxed), 1);
    }

    /// Shut until [`Gate::open`]; stays open afterwards.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let open = self.open.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    /// The batches gated models ran, in order: the model's tag and each
    /// row's first value.
    type BatchLog = Arc<Mutex<Vec<(u64, Vec<f64>)>>>;

    /// A model whose `predict_batch` waits for the gate and logs the
    /// batch. It forecasts `window[i] + tag`, so a row run by another
    /// entry's model or handed to another requester is wrong.
    struct GatedModel {
        tag: u64,
        gate: Arc<Gate>,
        log: BatchLog,
    }

    impl Forecaster for GatedModel {
        fn name(&self) -> &'static str {
            "Gated"
        }
        fn input_len(&self) -> usize {
            INPUT_LEN
        }
        fn horizon(&self) -> usize {
            HORIZON
        }
        fn fit(&mut self, _train: &MultiSeries, _val: &MultiSeries) -> Result<(), ForecastError> {
            Ok(())
        }
        fn predict(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>, ForecastError> {
            Ok(inputs[0][..HORIZON].iter().map(|v| v + self.tag as f64).collect())
        }
        fn predict_batch(&self, windows: &Tensor) -> Result<Tensor, ForecastError> {
            self.gate.wait();
            let firsts = windows.data().chunks(INPUT_LEN).map(|w| w[0]).collect();
            self.log.lock().unwrap().push((self.tag, firsts));
            let mut out = Tensor::zeros(windows.rows(), HORIZON);
            for (row, window) in
                out.data_mut().chunks_mut(HORIZON).zip(windows.data().chunks(INPUT_LEN))
            {
                row.copy_from_slice(&self.predict(&[window.to_vec()])?);
            }
            Ok(out)
        }
    }

    #[test]
    fn concurrent_same_model_requests_coalesce() {
        // One slot, held by the gate inside a batch of one A job. The
        // jobs queued meanwhile (A, B, A) run oldest entry first, and an
        // entry's batch never takes another entry's job.
        let gate = Arc::new(Gate::default());
        let log = BatchLog::default();
        let gated = |id: u64, tag: u64| {
            entry_with(
                id,
                Box::new(GatedModel { tag, gate: Arc::clone(&gate), log: Arc::clone(&log) }),
            )
        };
        let (a, b) = (gated(1, 100), gated(2, 200));
        let sched = Scheduler::start(SchedulerConfig { workers: 1, ..Default::default() });
        // Job k's window starts at k, so the log names the jobs in each
        // batch.
        let window =
            |k: usize| -> Vec<f64> { (0..INPUT_LEN).map(|i| k as f64 + i as f64 / 64.0).collect() };
        let entries = [&a, &a, &b, &a];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (k, entry) in entries.into_iter().enumerate() {
                let (sched, entry, w) = (&sched, Arc::clone(entry), window(k));
                handles.push(s.spawn(move || sched.forecast(entry, w)));
                if k == 0 {
                    wait_until("the first job holds the slot", || {
                        sched.stats().batches.load(Ordering::Relaxed) == 1
                    });
                } else {
                    wait_until("the job is queued", || sched.lock().jobs.len() == k);
                }
            }
            gate.open();
            for (k, (handle, entry)) in handles.into_iter().zip(entries).enumerate() {
                let served = handle.join().unwrap().expect("forecast succeeds");
                let direct = entry.model.lock().predict(&[window(k)]).expect("direct predict");
                assert_eq!(served, direct, "job {k} must get its own window's row");
            }
        });
        assert_eq!(
            *log.lock().unwrap(),
            [(100, vec![0.0]), (100, vec![1.0, 3.0]), (200, vec![2.0])],
            "A alone, then A+A, then B"
        );
        assert_eq!(sched.stats().batches.load(Ordering::Relaxed), 3);
        assert_eq!(sched.stats().batched_jobs.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_freed_slot_runs_the_oldest_entrys_queued_batch() {
        // Two slots, held by the gate inside batches of one A job and one
        // B job. The jobs queued meanwhile (A, B, A) run as [A, A] and
        // [B], each in a slot the first two hand on.
        let gate = Arc::new(Gate::default());
        let log = BatchLog::default();
        let gated = |id: u64, tag: u64| {
            entry_with(
                id,
                Box::new(GatedModel { tag, gate: Arc::clone(&gate), log: Arc::clone(&log) }),
            )
        };
        let (a, b) = (gated(1, 100), gated(2, 200));
        let sched = Scheduler::start(SchedulerConfig { workers: 2, ..Default::default() });
        let window =
            |k: usize| -> Vec<f64> { (0..INPUT_LEN).map(|i| k as f64 + i as f64 / 64.0).collect() };
        let entries = [&a, &b, &a, &b, &a];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (k, entry) in entries.into_iter().enumerate() {
                let (sched, entry, w) = (&sched, Arc::clone(entry), window(k));
                handles.push(s.spawn(move || sched.forecast(entry, w)));
                if k < 2 {
                    wait_until("the job holds a slot", || {
                        sched.stats().batches.load(Ordering::Relaxed) == k as u64 + 1
                    });
                } else {
                    wait_until("the job is queued", || sched.lock().jobs.len() == k - 1);
                }
            }
            gate.open();
            for (k, (handle, entry)) in handles.into_iter().zip(entries).enumerate() {
                let served = handle.join().unwrap().expect("forecast succeeds");
                let direct = entry.model.lock().predict(&[window(k)]).expect("direct predict");
                assert_eq!(served, direct, "job {k} must get its own window's row");
            }
        });
        // The two slots run concurrently, so only the set of batches is
        // fixed, not their order in the log.
        let mut batches = log.lock().unwrap().clone();
        batches.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        assert_eq!(
            batches,
            [(100, vec![0.0]), (100, vec![2.0, 4.0]), (200, vec![1.0]), (200, vec![3.0])],
            "A and B alone, then A+A and B"
        );
        assert_eq!(sched.inflight.load(Ordering::SeqCst), 0, "no admission slot leaked");
        assert_eq!(sched.lock().running, 0, "both execution slots are free");
    }

    #[test]
    fn admission_control_bounds_inflight_jobs() {
        let entry = fitted_entry(1);
        let sched = Scheduler::start(SchedulerConfig { queue_depth: 1, ..Default::default() });
        // Occupy the single slot through the real admission mechanism —
        // the guard a concurrent in-flight forecast would hold.
        let slot = AdmissionGuard::try_acquire(&sched.inflight, 1).expect("first slot is free");
        match sched.forecast(Arc::clone(&entry), vec![0.0; INPUT_LEN]) {
            Err(ServeError::Overloaded { depth }) => assert_eq!(depth, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(sched.stats().rejected.load(Ordering::Relaxed), 1);
        // Releasing the guard frees the slot for the next submission.
        drop(slot);
        let served = sched.forecast(entry, vec![0.0; INPUT_LEN]).unwrap();
        assert_eq!(served.len(), HORIZON);
    }

    #[test]
    fn wrong_length_window_is_a_typed_error_not_a_worker_panic() {
        // A short window used to survive until tensor staging in a batch
        // worker, where `copy_from_slice` panicked and killed the worker.
        // It must be rejected up front with a typed error.
        let entry = fitted_entry(1);
        let sched = Scheduler::start(SchedulerConfig::default());
        match sched.forecast(Arc::clone(&entry), vec![0.0; INPUT_LEN - 1]) {
            Err(ServeError::Model(msg)) => assert!(msg.contains("input_len"), "{msg}"),
            other => panic!("expected Model error, got {other:?}"),
        }
        let served = sched.forecast(entry, vec![0.0; INPUT_LEN]).unwrap();
        assert_eq!(served.len(), HORIZON);
    }

    /// A model whose predict path panics — stands in for any model bug
    /// that unwinds inside `predict_batch`.
    struct PanickyModel;

    impl forecast::model::Forecaster for PanickyModel {
        fn name(&self) -> &'static str {
            "Panicky"
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
        ) -> Result<(), forecast::ForecastError> {
            Ok(())
        }
        fn predict(&self, _inputs: &[Vec<f64>]) -> Result<Vec<f64>, forecast::ForecastError> {
            panic!("injected model bug");
        }
    }

    fn panicky_entry(id: u64) -> Arc<ModelEntry> {
        entry_with(id, Box::new(PanickyModel))
    }

    #[test]
    fn panicking_model_errors_jobs_without_leaking_slots() {
        // Regression for the admission-counter leak: with the old manual
        // increment/decrement pairs, a panicking predict killed the batch
        // thread, the reply channel died, and the guard-free error path
        // meant repeated failures pinned `inflight` above the bound. The
        // panic must now come back as a Model error and release both its
        // admission slot and its execution slot.
        let entry = panicky_entry(9);
        let sched = Scheduler::start(SchedulerConfig { queue_depth: 2, ..Default::default() });
        for _ in 0..5 {
            match sched.forecast(Arc::clone(&entry), vec![0.0; INPUT_LEN]) {
                Err(ServeError::Model(msg)) => assert!(msg.contains("panicked"), "{msg}"),
                other => panic!("expected Model error, got {other:?}"),
            }
        }
        assert_eq!(sched.inflight.load(Ordering::SeqCst), 0, "no admission slot leaked");
        assert_eq!(sched.lock().running, 0, "no execution slot leaked");
        // More failures than slots exist, yet a healthy model still serves.
        let served = sched.forecast(fitted_entry(1), vec![0.0; INPUT_LEN]).unwrap();
        assert_eq!(served.len(), HORIZON);
    }
}
