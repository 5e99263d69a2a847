//! Lightweight structured spans: RAII timers with parent linkage.
//!
//! A [`Span`] measures one region of work on a monotonic clock
//! ([`std::time::Instant`]). Completed spans are appended to a
//! *per-thread* buffer (no lock, no contention) which drains into the
//! global [`SpanSink`] when it fills and when the thread exits; callers
//! that need every span (exporters) read [`SpanSink::snapshot`], which
//! drains their own thread first — worker threads spawned per grid run
//! have already drained via their thread-local destructors by then.
//!
//! Parent linkage is per-thread: each thread keeps a stack of open span
//! ids, and a new span records the current top as its parent. That is
//! exactly the Chrome trace-event nesting model, so the trace exporter
//! can emit complete (`ph: "X"`) events with no extra bookkeeping.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Label;

/// How many completed spans a thread buffers before draining into the
/// global sink. Draining takes the sink lock once per `FLUSH_EVERY`
/// spans instead of once per span.
const FLUSH_EVERY: usize = 256;

/// Hard cap on retained span records: a runaway instrumented loop drops
/// the excess spans instead of exhausting memory.
const MAX_RECORDS: usize = 1_000_000;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, starts at 1).
    pub id: u64,
    /// Id of the span that was open on this thread when this one started
    /// (0 = a root span).
    pub parent: u64,
    /// Small sequential id of the thread the span ran on.
    pub tid: u64,
    /// Span name (static so hot paths never allocate for the name).
    pub name: &'static str,
    /// Sorted label pairs.
    pub labels: Vec<Label>,
    /// Start time in microseconds since the sink's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The global collector completed spans drain into.
#[derive(Debug)]
pub struct SpanSink {
    records: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    epoch: Instant,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink {
            records: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }
}

impl SpanSink {
    fn drain(&self, batch: &mut Vec<SpanRecord>) {
        if batch.is_empty() {
            return;
        }
        let mut records = self.records.lock().expect("span sink lock");
        batch.truncate(MAX_RECORDS.saturating_sub(records.len()));
        records.append(batch);
    }

    /// Drains the *calling thread's* buffered spans into the sink. Called
    /// by exporters before snapshotting; other threads drain when their
    /// buffers fill or when they exit.
    fn flush_thread(&self) {
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let mut batch = std::mem::take(&mut t.buffer);
            self.drain(&mut batch);
        });
    }

    /// A copy of every drained span, in drain order. Flushes the calling
    /// thread first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.flush_thread();
        self.records.lock().expect("span sink lock").clone()
    }
}

/// Per-thread state: a small sequential thread id, the open-span stack,
/// and the completed-span buffer.
struct ThreadState {
    tid: u64,
    stack: Vec<u64>,
    buffer: Vec<SpanRecord>,
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // The thread is exiting: hand whatever is buffered to the global
        // sink so short-lived worker threads never lose spans.
        if !self.buffer.is_empty() {
            crate::global().spans().drain(&mut self.buffer);
        }
    }
}

thread_local! {
    static THREAD: RefCell<ThreadState> =
        const { RefCell::new(ThreadState { tid: 0, stack: Vec::new(), buffer: Vec::new() }) };
}

/// An open span. Created by `start_span` (or [`fn@crate::span`], which
/// checks the enabled flag); the measured region ends when the guard
/// drops. An inert span (telemetry disabled at creation) costs nothing
/// on drop.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    inner: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    labels: Vec<Label>,
    started: Instant,
}

/// Opens a span against the global sink unconditionally (no enabled
/// check — that is [`fn@crate::span`]'s job). Spans always record into the
/// process-global sink: the guard outlives arbitrary call frames, so a
/// per-sink variant could not be tied to a borrowed sink without
/// infecting every instrumented signature with lifetimes.
pub(crate) fn start_span(name: &'static str, labels: &[(&str, &str)]) -> Span {
    let sink = crate::global().spans();
    let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        parent
    });
    let mut owned: Vec<Label> =
        labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    owned.sort();
    Span { inner: Some(OpenSpan { id, parent, name, labels: owned, started: Instant::now() }) }
}

impl SpanSink {
    fn finish(&self, open: OpenSpan) {
        let dur_us = open.started.elapsed().as_micros() as u64;
        let start_us = open.started.duration_since(self.epoch).as_micros() as u64;
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            // Pop this span off the open stack. It is normally the top;
            // out-of-order drops (guards stored in structs) still unlink.
            if let Some(pos) = t.stack.iter().rposition(|&id| id == open.id) {
                t.stack.remove(pos);
            }
            if t.tid == 0 {
                t.tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            }
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                tid: t.tid,
                name: open.name,
                labels: open.labels,
                start_us,
                dur_us,
            };
            t.buffer.push(record);
            if t.buffer.len() >= FLUSH_EVERY {
                let mut batch = std::mem::take(&mut t.buffer);
                self.drain(&mut batch);
            }
        });
    }
}

impl Span {
    /// An inert span for disabled telemetry: no allocation, no record.
    pub fn inert() -> Span {
        Span { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            crate::global().spans().finish(open);
        }
    }
}

/// The `n` slowest individual spans named `name`, slowest first.
pub fn slowest<'r>(records: &'r [SpanRecord], name: &str, n: usize) -> Vec<&'r SpanRecord> {
    let mut matching: Vec<&SpanRecord> = records.iter().filter(|r| r.name == name).collect();
    matching.sort_by_key(|r| std::cmp::Reverse(r.dur_us));
    matching.truncate(n);
    matching
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowest_filters_by_name_and_sorts() {
        let rec = |name, dur_us| SpanRecord {
            id: 0,
            parent: 0,
            tid: 1,
            name,
            labels: vec![],
            start_us: 0,
            dur_us,
        };
        let records = vec![rec("a", 10), rec("b", 100), rec("a", 30)];
        let slow = slowest(&records, "a", 1);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].dur_us, 30);
    }

    #[test]
    fn inert_span_records_nothing() {
        let s = Span::inert();
        assert!(s.inner.is_none());
        drop(s); // must not touch the global sink
    }
}
