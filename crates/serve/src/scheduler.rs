//! The batching scheduler: work-conserving batching + admission control.
//!
//! Forecast jobs enter one FIFO queue guarded by an inflight counter —
//! when [`SchedulerConfig::queue_depth`] jobs are queued or executing,
//! the next submit is rejected *before queueing* with
//! [`ServeError::Overloaded`], so memory stays bounded under any load.
//!
//! Batching is work-conserving: an idle worker takes the oldest queued
//! job at once, together with every queued job for the same registry
//! entry, up to [`SchedulerConfig::max_batch`]. Jobs pile up only while
//! every worker is busy, so the arrivals during an in-flight batch form
//! the next batch and no request waits for companions. The worker stacks
//! the batch's windows into one `[n, input_len]` tensor and makes a
//! single [`Forecaster::predict_batch`] call — `n` requests pay one
//! dispatch. Rows come back to each requester bit-identical to a
//! per-window [`Forecaster::predict`] (the batch-identity contract
//! pinned in `forecast/tests/batch_identity.rs`).
//!
//! [`Forecaster::predict`]: forecast::Forecaster::predict
//! [`Forecaster::predict_batch`]: forecast::Forecaster::predict_batch

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Maximum jobs one worker takes into one `predict_batch` call.
    pub max_batch: usize,
    /// Worker threads executing batches.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { queue_depth: 256, max_batch: 64, workers: 2 }
    }
}

struct Job {
    entry: Arc<ModelEntry>,
    window: Vec<f64>,
    reply: Sender<Result<Vec<f64>, String>>,
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

/// The job queue; `closed` tells idle workers to exit.
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// What the submitters and the workers share.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every enqueue and on close.
    ready: Condvar,
    stats: SchedulerStats,
}

const QUEUE_NEVER_POISONED: &str = "no thread panics while holding the scheduler queue";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(QUEUE_NEVER_POISONED)
    }

    /// Blocks until a job is queued and takes its batch; `None` once the
    /// queue is closed and empty.
    fn next_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut queue = self.lock();
        loop {
            if let Some(jobs) = take_batch(&mut queue.jobs, max_batch) {
                return Some(jobs);
            }
            if queue.closed {
                return None;
            }
            queue = self.ready.wait(queue).expect(QUEUE_NEVER_POISONED);
        }
    }
}

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

/// The batching scheduler. Dropping it closes the queue and joins the
/// workers.
pub struct Scheduler {
    shared: Arc<Shared>,
    inflight: AtomicUsize,
    config: SchedulerConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool.
    pub fn start(config: SchedulerConfig) -> Scheduler {
        assert!(config.queue_depth >= 1 && config.max_batch >= 1 && config.workers >= 1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            stats: SchedulerStats::default(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, config.max_batch))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler { shared, inflight: AtomicUsize::new(0), config, workers }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.shared.stats
    }

    /// Submits one forecast job and blocks for its result. A `window`
    /// that is not exactly `entry.input_len` long is rejected with a
    /// typed error before admission (it would otherwise panic a batch
    /// worker during staging). Fails fast with [`ServeError::Overloaded`]
    /// when `queue_depth` jobs are in flight; the admission slot is held
    /// by an RAII guard, so every exit — success, error, or panic —
    /// releases it.
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
        let (reply, reply_rx) = channel::bounded(1);
        // Admission and enqueue share one critical section, so every job
        // counted in flight is already queued or executing.
        let mut queue = self.shared.lock();
        let Some(_slot) = AdmissionGuard::try_acquire(&self.inflight, depth) else {
            drop(queue);
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            counter_add("serve_rejected_total", &[], 1);
            return Err(ServeError::Overloaded { depth });
        };
        queue.jobs.push_back(Job { entry, window, reply });
        drop(queue);
        self.shared.ready.notify_one();
        match reply_rx.recv() {
            Ok(Ok(values)) => Ok(values),
            Ok(Err(msg)) => Err(ServeError::Model(msg)),
            Err(_) => Err(ServeError::ShuttingDown),
        }
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

impl Drop for Scheduler {
    fn drop(&mut self) {
        // `forecast` borrows the scheduler until its reply arrives, so no
        // job is queued here; closing the queue lets the idle workers exit.
        self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, max_batch: usize) {
    while let Some(jobs) = shared.next_batch(max_batch) {
        let n = jobs.len();
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        shared.stats.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
        counter_add("serve_batches_total", &[], 1);
        counter_add("serve_batch_jobs_total", &[], n as u64);
        telemetry::global().metrics().observe_with(
            "serve_batch_occupancy",
            &[],
            &OCCUPANCY_BOUNDS,
            n as f64,
        );
        run_batch(jobs);
    }
}

fn run_batch(jobs: Vec<Job>) {
    let n = jobs.len();
    let entry = &jobs[0].entry;
    let input_len = entry.input_len;
    let horizon = entry.horizon;
    let mut windows = Tensor::zeros(n, input_len);
    for (row, job) in jobs.iter().enumerate() {
        windows.data_mut()[row * input_len..(row + 1) * input_len].copy_from_slice(&job.window);
    }
    let started = Instant::now();
    // The model call is trapped: a panicking `predict_batch` must become
    // an error reply to every job in the batch, not a dead worker thread
    // that silently shrinks the pool for the rest of the process.
    // (parking_lot mutexes do not poison, so the entry stays usable.)
    let result = catch_unwind(AssertUnwindSafe(|| {
        let model = entry.model.lock();
        model.predict_batch(&windows)
    }));
    observe("serve_predict_seconds", &[("model", &entry.spec.model)], secs(started.elapsed()));
    let preds = match result {
        Ok(Ok(t)) => t,
        Ok(Err(e)) => {
            let msg = e.to_string();
            for job in jobs {
                let _ = job.reply.send(Err(msg.clone()));
            }
            return;
        }
        Err(payload) => {
            counter_add("serve_predict_panics_total", &[], 1);
            let msg = format!("predict_batch panicked: {}", panic_text(payload.as_ref()));
            for job in jobs {
                let _ = job.reply.send(Err(msg.clone()));
            }
            return;
        }
    };
    if preds.rows() != n || preds.cols() != horizon {
        let msg = format!("predict_batch returned {:?}, expected [{n}, {horizon}]", preds.shape());
        for job in jobs {
            let _ = job.reply.send(Err(msg.clone()));
        }
        return;
    }
    for (row, job) in jobs.into_iter().enumerate() {
        let values = preds.data()[row * horizon..(row + 1) * horizon].to_vec();
        let _ = job.reply.send(Ok(values));
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
        // One worker, held by the gate inside a batch of one A job. The
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
                    wait_until("the worker holds the first job", || {
                        sched.stats().batches.load(Ordering::Relaxed) == 1
                    });
                } else {
                    wait_until("the job is queued", || sched.shared.lock().jobs.len() == k);
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
    fn panicking_model_errors_jobs_without_leaking_slots_or_workers() {
        // Regression for the admission-counter leak: with the old manual
        // increment/decrement pairs, a panicking predict killed the batch
        // worker, the reply channel died, and the guard-free error path
        // meant repeated failures pinned `inflight` above the bound. The
        // panic must now come back as a Model error, release its slot,
        // and leave the worker pool alive.
        let entry = panicky_entry(9);
        let sched = Scheduler::start(SchedulerConfig { queue_depth: 2, ..Default::default() });
        for _ in 0..5 {
            match sched.forecast(Arc::clone(&entry), vec![0.0; INPUT_LEN]) {
                Err(ServeError::Model(msg)) => assert!(msg.contains("panicked"), "{msg}"),
                other => panic!("expected Model error, got {other:?}"),
            }
        }
        assert_eq!(sched.inflight.load(Ordering::SeqCst), 0, "no admission slot leaked");
        // More failures than workers existed, yet a healthy model still
        // serves: no worker thread died to the panics.
        let served = sched.forecast(fitted_entry(1), vec![0.0; INPUT_LEN]).unwrap();
        assert_eq!(served.len(), HORIZON);
    }
}
