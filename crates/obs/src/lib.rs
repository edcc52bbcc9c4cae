#![warn(missing_docs)]

//! `treequery-obs`: the observability substrate of the query pipeline.
//!
//! Zero-dependency (offline-friendly, like `shims/`) tracing, metrics and
//! per-query context:
//!
//! * [`QueryCtx`] — one query's ambient state: flight query id, span
//!   depth, request context, allocation scope, cancel token and an
//!   optional span [`Capture`]. One thread-local holds it; the worker
//!   pool takes one [`QueryCtx::current`] per submission and
//!   [`QueryCtx::enter`]s it around every chunk, so a query's spans,
//!   allocations and cancellation follow its work and nothing else's;
//! * [`span`] / [`Span`] — timed spans with structured fields, delivered
//!   to the current context's capture. With nothing captured anywhere
//!   the span costs one relaxed atomic load (verified by the harness's
//!   `--check-noop-overhead`);
//! * [`capture`] — the one span-capture path: `EXPLAIN ANALYZE`, the
//!   harness report, the bench suite and the flight recorder each run
//!   their work under a capture and fold what it collected with
//!   [`summarize_spans`]. Captures nest: a capture closing inside another
//!   forwards its spans outward, so concurrent analyses stay exact and a
//!   report still sees every analysis it encloses;
//! * [`cancel`] — the cancel token kernels poll at chunk boundaries;
//! * [`LatencyHistogram`] — fixed power-of-two-bucket latency histograms
//!   with p50/p95/p99 summaries;
//! * [`Json`] — a serde-free JSON value with a renderer and a parser,
//!   used by the bench harness's `--report` path and by
//!   `Engine::explain_analyze`'s machine-readable output.

pub mod alloc;
pub mod cancel;
mod ctx;
pub mod env;
pub mod flight;
mod histogram;
mod json;
pub mod metrics;
pub mod prom;
pub mod slo;
mod span;
mod summary;
pub mod traceexport;

pub use ctx::{capture, recording, Capture, Captured, QueryCtx};
pub use histogram::{HistogramSummary, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use json::{parse_json, Json, JsonParseError};
pub use span::{span, Field, FieldValue, Span, SpanRecord};
pub use summary::{summarize_spans, SpanSummary};

/// The counting allocator wraps [`std::alloc::System`] for every binary
/// in the workspace. Its disabled path is one relaxed atomic load per
/// `alloc`/`dealloc` (bounded by the `--check-noop-overhead` CI gate);
/// accounting only runs inside an [`alloc::AccountingGuard`] scope.
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use std::sync::atomic::{AtomicU32, Ordering};

/// Bit in [`FLAGS`]: the [`flight`] recorder is installed.
pub(crate) const FLAG_FLIGHT: u32 = 1 << 1;
/// Bit in [`FLAGS`]: some [`Capture`] is alive, on some thread.
pub(crate) const FLAG_CAPTURE: u32 = 1 << 2;

/// The single enable word every instrumentation fast path loads: one bit
/// per subsystem (span capture, flight recorder). Folding all the
/// enables into one atomic keeps the fully-disabled [`span`] path at
/// exactly one relaxed load no matter how many subsystems exist — the
/// invariant the `--check-noop-overhead` CI gate budgets.
static FLAGS: AtomicU32 = AtomicU32::new(0);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!recording());
        let s = span("test.inert");
        assert!(!s.is_recording());
        drop(s);
    }
}
