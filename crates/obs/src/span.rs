//! The span core: guards with monotonic timing and structured fields,
//! nested by the depth of the current [`QueryCtx`](crate::QueryCtx) and
//! delivered to its [`Capture`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::ctx::Capture;

/// A structured field value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned counter (node counts, candidate-set sizes, …).
    U64(u64),
    /// A floating-point measurement.
    F64(f64),
    /// A boolean flag (cache hit/miss, …).
    Bool(bool),
    /// A short string (strategy names, …).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// A `key = value` pair attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// The field name.
    pub key: &'static str,
    /// The field value.
    pub value: FieldValue,
}

/// A closed span, as delivered to a [`Capture`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The span name (dot-separated taxonomy, e.g. `exec.semijoin`).
    pub name: &'static str,
    /// Nanoseconds since the process's tracing epoch at which the span
    /// opened.
    pub start_ns: u64,
    /// Monotonic wall time between open and close, in nanoseconds.
    pub duration_ns: u64,
    /// Nesting depth within the query context it opened under
    /// (0 = outermost).
    pub depth: u32,
    /// A dense per-thread id (assigned on first span per thread).
    pub thread: u64,
    /// Structured fields recorded while the span was open.
    pub fields: Vec<Field>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's tracing epoch — the same time base
/// every [`SpanRecord::start_ns`] uses. The flight recorder uses this to
/// stamp synthetic spans (e.g. response serialization, which happens
/// after the engine has already submitted the record) on a timeline
/// consistent with the real ones.
pub(crate) fn now_since_epoch_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The dense tracing thread id of the calling thread (see
/// [`SpanRecord::thread`]); exposed so synthetic spans carry the same id
/// space as real ones.
pub(crate) fn current_thread_id() -> u64 {
    thread_id()
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: Cell<Option<u64>> = const { Cell::new(None) };
    }
    ID.with(|id| match id.get() {
        Some(v) => v,
        None => {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(Some(v));
            v
        }
    })
}

/// Opens a span. When all observability is off this is one relaxed
/// atomic load and returns an inert guard (no clock read, no
/// allocation). A span is live only when the current
/// [`QueryCtx`](crate::QueryCtx) carries a [`Capture`]: `EXPLAIN
/// ANALYZE`, a harness report, or a flight-recorded query.
#[inline]
pub fn span(name: &'static str) -> Span {
    let flags = crate::flags();
    if flags == 0 {
        return Span { active: None, name };
    }
    span_slow(name, flags)
}

#[cold]
fn span_slow(name: &'static str, flags: u32) -> Span {
    if flags & crate::FLAG_CAPTURE == 0 {
        return Span { active: None, name };
    }
    match crate::ctx::open_span() {
        Some((capture, depth)) => Span {
            active: Some(ActiveSpan {
                capture,
                start: Instant::now(),
                start_ns: now_since_epoch_ns(),
                depth,
                fields: Vec::new(),
            }),
            name,
        },
        None => Span { active: None, name },
    }
}

struct ActiveSpan {
    capture: Capture,
    start: Instant,
    start_ns: u64,
    depth: u32,
    fields: Vec<Field>,
}

/// An open span; closing (dropping) it delivers a [`SpanRecord`] to the
/// capture that was current at open time. Its bookkeeping is never
/// charged to an allocation scope: `mem` columns measure the query, not
/// the observer.
pub struct Span {
    active: Option<ActiveSpan>,
    name: &'static str,
}

impl Span {
    /// Whether this span will be delivered to a capture on close.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a counter field (no-op on inert spans).
    pub fn record_u64(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            let _unattributed = crate::alloc::install(None);
            a.fields.push(Field {
                key,
                value: FieldValue::U64(value),
            });
        }
    }

    /// Attaches a boolean field (no-op on inert spans).
    pub fn record_bool(&mut self, key: &'static str, value: bool) {
        if let Some(a) = &mut self.active {
            let _unattributed = crate::alloc::install(None);
            a.fields.push(Field {
                key,
                value: FieldValue::Bool(value),
            });
        }
    }

    /// Attaches a string field (no-op on inert spans).
    pub fn record_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(a) = &mut self.active {
            let _unattributed = crate::alloc::install(None);
            a.fields.push(Field {
                key,
                value: FieldValue::Str(value.into()),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            crate::ctx::close_span();
            let _unattributed = crate::alloc::install(None);
            a.capture.push(SpanRecord {
                name: self.name,
                start_ns: a.start_ns,
                duration_ns: a.start.elapsed().as_nanos() as u64,
                depth: a.depth,
                thread: thread_id(),
                fields: a.fields,
            });
        }
    }
}
