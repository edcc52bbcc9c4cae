#![warn(missing_docs)]

//! `treequery-obs`: the observability substrate of the query pipeline.
//!
//! Zero-dependency (offline-friendly, like `shims/`) tracing and metrics
//! primitives:
//!
//! * [`span`] / [`Span`] — a lightweight span core: a thread-safe span
//!   stack (per-thread depth tracking) with monotonic timing and
//!   structured fields, dispatched to the installed [`Recorder`];
//! * [`Recorder`] — the sink trait, with [`NoopRecorder`] (the disabled
//!   path costs one relaxed atomic load; verified by the harness's
//!   `--check-noop-overhead`), [`CollectingRecorder`] (in-memory
//!   aggregation: per-span-name call counts, wall time, latency
//!   histograms, field sums, and a bounded ring-buffer event log), and
//!   [`JsonLinesRecorder`] (one JSON object per closed span, streamed to
//!   any writer);
//! * [`LatencyHistogram`] — fixed power-of-two-bucket latency histograms
//!   with p50/p95/p99 summaries;
//! * [`RingLog`] — a bounded ring buffer keeping the most recent events;
//! * [`Json`] — a serde-free JSON value with a renderer and a parser,
//!   used by the bench harness's `--report` path and by
//!   `Engine::explain_analyze`'s machine-readable output.
//!
//! Recording is opt-in and global, like `tracing`'s subscriber: when no
//! recorder is installed, [`span`] returns an inert guard without reading
//! the clock. Install one for a scope with [`with_recorder`], or
//! process-wide with [`set_recorder`].

pub mod alloc;
pub mod env;
pub mod flight;
mod histogram;
mod json;
pub mod metrics;
pub mod prom;
mod recorder;
mod ring;
pub mod slo;
mod span;
pub mod traceexport;

pub use histogram::{HistogramSummary, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use json::{parse_json, Json, JsonParseError};
pub use recorder::{
    summarize_spans, CollectingRecorder, JsonLinesRecorder, NoopRecorder, Recorder, SpanSummary,
};
pub use ring::RingLog;
pub use span::{current_depth, span, with_ambient_depth, Field, FieldValue, Span, SpanRecord};

/// The counting allocator wraps [`std::alloc::System`] for every binary
/// in the workspace. Its disabled path is one relaxed atomic load per
/// `alloc`/`dealloc` (bounded by the `--check-noop-overhead` CI gate);
/// accounting only runs inside an [`alloc::AccountingGuard`] scope.
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Bit in [`FLAGS`]: a span [`Recorder`] is installed.
pub(crate) const FLAG_RECORDER: u32 = 1 << 0;
/// Bit in [`FLAGS`]: the [`flight`] recorder is installed.
pub(crate) const FLAG_FLIGHT: u32 = 1 << 1;

/// The single enable word every instrumentation fast path loads: one bit
/// per subsystem (span recorder, flight recorder). Folding all the
/// enables into one atomic keeps the fully-disabled [`span`] path at
/// exactly one relaxed load no matter how many subsystems exist — the
/// invariant the `--check-noop-overhead` CI gate budgets.
static FLAGS: AtomicU32 = AtomicU32::new(0);

static RECORDER: Mutex<Option<Arc<dyn Recorder>>> = Mutex::new(None);

/// The current enable bits. One relaxed atomic load — this is the entire
/// cost instrumented code pays when all observability is off.
#[inline]
pub(crate) fn flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

pub(crate) fn set_flag(bit: u32) {
    FLAGS.fetch_or(bit, Ordering::Release);
}

pub(crate) fn clear_flag(bit: u32) {
    FLAGS.fetch_and(!bit, Ordering::Release);
}

/// Whether a span recorder is currently installed. (The flight recorder
/// has its own bit; see [`flight::enabled`].)
#[inline]
pub fn recording() -> bool {
    flags() & FLAG_RECORDER != 0
}

/// Installs `recorder` process-wide (replacing any previous one).
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    let mut slot = RECORDER.lock().expect("recorder slot poisoned");
    *slot = Some(recorder);
    set_flag(FLAG_RECORDER);
}

/// Uninstalls the process-wide recorder; subsequent [`span`] calls are
/// inert again (unless the flight recorder is on).
pub fn clear_recorder() {
    let mut slot = RECORDER.lock().expect("recorder slot poisoned");
    clear_flag(FLAG_RECORDER);
    *slot = None;
}

/// The currently installed recorder, if any.
pub fn current_recorder() -> Option<Arc<dyn Recorder>> {
    if !recording() {
        return None;
    }
    RECORDER.lock().expect("recorder slot poisoned").clone()
}

/// Runs `f` with `recorder` installed, restoring the previous recorder
/// afterwards (also on panic). Spans opened by *any* thread during the
/// scope are dispatched to `recorder` — which is what lets one call
/// observe `Engine::eval_batch`'s scoped workers. Nested scopes restore
/// in LIFO order; concurrent scopes on different threads would race on
/// the single global slot, so callers wanting isolated numbers (e.g.
/// `explain_analyze`) should not overlap scopes.
pub fn with_recorder<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let mut slot = RECORDER.lock().expect("recorder slot poisoned");
            if self.0.is_some() {
                set_flag(FLAG_RECORDER);
            } else {
                clear_flag(FLAG_RECORDER);
            }
            *slot = self.0.take();
        }
    }
    let previous = {
        let mut slot = RECORDER.lock().expect("recorder slot poisoned");
        let previous = slot.take();
        *slot = Some(recorder);
        set_flag(FLAG_RECORDER);
        previous
    };
    let _restore = Restore(previous);
    f()
}

/// Bit in [`FLAGS`]: some thread has a per-query [`with_capture`]
/// recorder installed.
pub(crate) const FLAG_CAPTURE: u32 = 1 << 2;

/// How many [`with_capture`] scopes are open, process-wide; guards the
/// [`FLAG_CAPTURE`] bit so it clears only when the last scope closes.
static CAPTURES: Mutex<usize> = Mutex::new(0);

std::thread_local! {
    static CAPTURE: std::cell::RefCell<Option<Arc<dyn Recorder>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `recorder` as this thread's capture, restoring the
/// previous capture afterwards (also on panic). Spans opened on this
/// thread while a capture is installed go to the capture instead of the
/// process-wide recorder, so concurrent captures on different threads
/// never see each other's spans. Worker pools read [`current_capture`]
/// on the submitting thread and re-install it on their workers, which is
/// what keeps one query's chunk spans in that query's capture.
pub fn with_capture<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPTURE.with(|c| *c.borrow_mut() = self.0.take());
            let mut open = CAPTURES.lock().expect("capture count poisoned");
            *open -= 1;
            if *open == 0 {
                clear_flag(FLAG_CAPTURE);
            }
        }
    }
    {
        let mut open = CAPTURES.lock().expect("capture count poisoned");
        *open += 1;
        set_flag(FLAG_CAPTURE);
    }
    let previous = CAPTURE.with(|c| c.borrow_mut().replace(recorder));
    let _restore = Restore(previous);
    f()
}

/// This thread's [`with_capture`] recorder, if one is installed.
pub fn current_capture() -> Option<Arc<dyn Recorder>> {
    if flags() & FLAG_CAPTURE == 0 {
        return None;
    }
    CAPTURE.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        clear_recorder();
        assert!(!recording());
        let s = span("test.inert");
        assert!(!s.is_recording());
        drop(s);
    }

    #[test]
    fn with_recorder_scopes_and_restores() {
        let rec = Arc::new(CollectingRecorder::default());
        let collected = with_recorder(rec.clone(), || {
            assert!(recording());
            {
                let mut s = span("test.outer");
                s.record_u64("items", 3);
                let _inner = span("test.inner");
            }
            rec.finished_spans()
        });
        assert!(!recording());
        assert_eq!(collected.len(), 2);
        // Spans close innermost-first.
        assert_eq!(collected[0].name, "test.inner");
        assert_eq!(collected[0].depth, 1);
        assert_eq!(collected[1].name, "test.outer");
        assert_eq!(collected[1].depth, 0);
        assert_eq!(collected[1].fields[0].key, "items");
        assert_eq!(collected[1].fields[0].value, FieldValue::U64(3));
    }

    #[test]
    fn with_recorder_restores_on_panic() {
        let rec = Arc::new(CollectingRecorder::default());
        let result = std::panic::catch_unwind(|| {
            with_recorder(rec, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!recording());
    }

    #[test]
    fn spans_from_spawned_threads_are_recorded() {
        let rec = Arc::new(CollectingRecorder::default());
        with_recorder(rec.clone(), || {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _g = span("test.worker");
                    });
                }
            });
        });
        let summary = rec.summary();
        let worker = summary.iter().find(|s| s.name == "test.worker").unwrap();
        assert_eq!(worker.calls, 4);
    }

    #[test]
    fn concurrent_captures_see_only_their_own_thread() {
        let barrier = std::sync::Barrier::new(2);
        let captured = |name: &'static str| {
            let rec = Arc::new(CollectingRecorder::default());
            with_capture(rec.clone(), || {
                barrier.wait();
                for _ in 0..3 {
                    let _s = span(name);
                }
                barrier.wait();
            });
            rec.finished_spans()
        };
        let (left, right) = std::thread::scope(|s| {
            let left = s.spawn(|| captured("test.left"));
            let right = s.spawn(|| captured("test.right"));
            (left.join().unwrap(), right.join().unwrap())
        });
        assert_eq!(left.len(), 3);
        assert!(left.iter().all(|r| r.name == "test.left"));
        assert_eq!(right.len(), 3);
        assert!(right.iter().all(|r| r.name == "test.right"));
        assert!(current_capture().is_none());
    }
}
