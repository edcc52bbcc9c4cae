//! The per-query context: everything ambient a query carries, in one
//! value that one thread-local holds and the worker pool propagates.
//!
//! A [`QueryCtx`] names the flight-recorder query id, the span depth,
//! the wire-request context, the allocation scope, the cancel token and
//! an optional span [`Capture`]. Code that hands work to another thread
//! takes one [`QueryCtx::current`] on the submitting side and runs the
//! work under [`QueryCtx::enter`] on the other; nothing else is
//! propagated, so a query's spans, allocations and cancellation follow
//! its work onto pool workers and never leak into another query's.
//!
//! Two copies live outside the thread-local, for speed: the allocator
//! reads the allocation scope through its own raw pointer
//! ([`crate::alloc`]), and open spans hold the capture they deliver to.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::alloc::{ScopeHandle, ScopeStats};
use crate::cancel::CancelToken;
use crate::flight::RequestCtx;
use crate::span::SpanRecord;

/// One query's ambient state. Cloning is cheap (reference counts only).
#[derive(Clone, Debug, Default)]
pub struct QueryCtx {
    /// The flight-recorder query id spans and records attribute to
    /// (0 = none).
    pub query: u64,
    /// The depth the next span opened under this context records.
    pub depth: u32,
    /// The wire request the serving layer is answering, if any.
    pub request: Option<Arc<RequestCtx>>,
    /// The allocation scope allocations are charged to, if any.
    pub alloc: Option<ScopeHandle>,
    /// The token the kernels' cancellation checkpoints poll, if any.
    pub cancel: Option<CancelToken>,
    /// Where spans closed under this context go, if anywhere.
    pub capture: Option<Capture>,
}

thread_local! {
    static CTX: RefCell<QueryCtx> = const {
        RefCell::new(QueryCtx {
            query: 0,
            depth: 0,
            request: None,
            alloc: None,
            cancel: None,
            capture: None,
        })
    };
}

/// Reads this thread's context without cloning it.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&QueryCtx) -> R) -> R {
    CTX.with(|c| f(&c.borrow()))
}

/// Claims the next span depth under this thread's capture, if one is
/// installed: returns the capture and the depth, and deepens the context
/// by one until [`close_span`].
pub(crate) fn open_span() -> Option<(Capture, u32)> {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let capture = c.capture.clone()?;
        let depth = c.depth;
        c.depth += 1;
        Some((capture, depth))
    })
}

/// Undoes one [`open_span`].
pub(crate) fn close_span() {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        c.depth = c.depth.saturating_sub(1);
    });
}

impl QueryCtx {
    /// This thread's context.
    pub fn current() -> QueryCtx {
        let mut ctx = CTX.with(|c| c.borrow().clone());
        // The allocator's pointer is the authoritative copy: scopes
        // entered since the context was installed push onto it.
        ctx.alloc = crate::alloc::current_scope();
        ctx
    }

    /// Runs `f` with this context installed on the calling thread, then
    /// restores the previous one (also on panic). Installs nest LIFO.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<QueryCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take().unwrap_or_default();
                // Dropped outside the borrow: the context being removed
                // may hold the last reference to a capture.
                let _entered = CTX.with(|c| c.replace(previous));
            }
        }
        let previous = CTX.with(|c| c.replace(self.clone()));
        let _restore = Restore(Some(previous));
        let _alloc = crate::alloc::install(self.alloc.as_ref());
        f()
    }
}

/// Runs `f` under the current context with a fresh, unbounded span
/// capture, and returns `f`'s result with everything captured: the spans
/// closed under it (also on pool workers running its chunks) and the
/// totals of the allocation scopes that closed under it. When `f` runs
/// inside another capture, the captured material is forwarded there too.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Captured) {
    let mut ctx = QueryCtx::current();
    let capture = Capture::new(usize::MAX, ctx.capture.take());
    ctx.capture = Some(capture.clone());
    let out = ctx.enter(f);
    drop(ctx);
    (out, capture.take())
}

/// Whether spans opened on this thread are being captured.
pub fn recording() -> bool {
    crate::flags() & crate::FLAG_CAPTURE != 0 && with_current(|c| c.capture.is_some())
}

/// What a [`Capture`] collected.
#[derive(Clone, Debug, Default)]
pub struct Captured {
    /// The closed spans, in close order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped past the capture's limit.
    pub dropped_spans: u64,
    /// Per-name totals of the allocation scopes that closed under the
    /// capture, in first-close order.
    pub alloc: Vec<(&'static str, ScopeStats)>,
}

impl Captured {
    /// The merged totals of the allocation scopes named `name`.
    pub fn alloc_stats(&self, name: &str) -> Option<ScopeStats> {
        self.alloc.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    fn push(&mut self, span: SpanRecord, limit: usize) {
        if self.spans.len() >= limit {
            self.dropped_spans += 1;
        } else {
            self.spans.push(span);
        }
    }

    fn merge_alloc(&mut self, name: &'static str, stats: &ScopeStats) {
        match self.alloc.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => total.merge(stats),
            None => self.alloc.push((name, *stats)),
        }
    }
}

/// A shared span buffer: the one sink closed spans go to. Created by
/// [`capture`] and by [`crate::flight::begin_query`]; installed through a
/// [`QueryCtx`].
#[derive(Clone, Debug)]
pub struct Capture(Arc<CaptureInner>);

#[derive(Debug)]
struct CaptureInner {
    limit: usize,
    /// The capture that was current when this one was created; material
    /// taken from this one is forwarded there.
    parent: Option<Capture>,
    buf: Mutex<Captured>,
}

/// Live captures, process-wide; guards the [`crate::FLAG_CAPTURE`] bit
/// so it clears only when the last capture is gone.
static OPEN: Mutex<usize> = Mutex::new(0);

impl Capture {
    /// A capture keeping at most `limit` spans.
    pub(crate) fn new(limit: usize, parent: Option<Capture>) -> Capture {
        let mut open = OPEN.lock().expect("capture count poisoned");
        *open += 1;
        crate::set_flag(crate::FLAG_CAPTURE);
        Capture(Arc::new(CaptureInner {
            limit,
            parent,
            buf: Mutex::new(Captured::default()),
        }))
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, Captured> {
        self.0.buf.lock().expect("capture poisoned")
    }

    pub(crate) fn push(&self, span: SpanRecord) {
        self.buf().push(span, self.0.limit);
    }

    pub(crate) fn merge_alloc(&self, name: &'static str, stats: &ScopeStats) {
        self.buf().merge_alloc(name, stats);
    }

    /// Removes and returns everything captured so far, forwarding a copy
    /// to the enclosing capture (if this one was created inside one).
    pub fn take(&self) -> Captured {
        let taken = std::mem::take(&mut *self.buf());
        if let Some(parent) = &self.0.parent {
            let mut buf = parent.buf();
            for span in &taken.spans {
                buf.push(span.clone(), parent.0.limit);
            }
            buf.dropped_spans += taken.dropped_spans;
            for (name, stats) in &taken.alloc {
                buf.merge_alloc(name, stats);
            }
        }
        taken
    }
}

impl Drop for CaptureInner {
    fn drop(&mut self) {
        // Every update leaves the count valid, so a poisoned lock is safe
        // to reuse (and Drop must not panic).
        let mut open = OPEN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *open -= 1;
        if *open == 0 {
            crate::clear_flag(crate::FLAG_CAPTURE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, FieldValue};

    #[test]
    fn capture_scopes_and_restores() {
        let ((), captured) = capture(|| {
            assert!(recording());
            let mut s = span("test.outer");
            s.record_u64("items", 3);
            let _inner = span("test.inner");
        });
        assert!(!recording());
        let spans = &captured.spans;
        assert_eq!(spans.len(), 2);
        // Spans close innermost-first.
        assert_eq!(spans[0].name, "test.inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "test.outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].fields[0].key, "items");
        assert_eq!(spans[1].fields[0].value, FieldValue::U64(3));
    }

    #[test]
    fn enter_nests_lifo_and_restores_on_panic() {
        let outer = QueryCtx {
            query: 42,
            ..QueryCtx::current()
        };
        let seen = outer.enter(|| {
            let inner = QueryCtx {
                query: 7,
                ..QueryCtx::current()
            };
            let nested = inner.enter(|| QueryCtx::current().query);
            (nested, QueryCtx::current().query)
        });
        assert_eq!(seen, (7, 42));
        assert_eq!(QueryCtx::current().query, 0);
        let panicked = std::panic::catch_unwind(|| outer.enter(|| panic!("boom")));
        assert!(panicked.is_err());
        assert_eq!(QueryCtx::current().query, 0);
        assert!(!recording());
    }

    #[test]
    fn nested_captures_forward_to_the_enclosing_one() {
        let (inner, outer) = capture(|| {
            let _outer_span = span("test.enclosing");
            let ((), inner) = capture(|| {
                let _s = span("test.nested");
            });
            inner
        });
        assert_eq!(inner.spans.len(), 1);
        // The nested span reached the enclosing capture, at the depth it
        // was opened at.
        let names: Vec<_> = outer.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, [("test.nested", 1), ("test.enclosing", 0)]);
    }

    #[test]
    fn capture_limit_counts_dropped_spans() {
        let capture = Capture::new(2, None);
        let ctx = QueryCtx {
            capture: Some(capture.clone()),
            ..QueryCtx::default()
        };
        ctx.enter(|| {
            for name in ["a", "b", "c"] {
                let _s = span(name);
            }
        });
        let taken = capture.take();
        let names: Vec<_> = taken.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(taken.dropped_spans, 1);
        // Taking drains.
        assert!(capture.take().spans.is_empty());
    }

    #[test]
    fn concurrent_captures_see_only_their_own_spans() {
        let barrier = std::sync::Barrier::new(2);
        let captured = |name: &'static str| {
            capture(|| {
                barrier.wait();
                for _ in 0..3 {
                    let _s = span(name);
                }
                barrier.wait();
            })
            .1
        };
        let (left, right) = std::thread::scope(|s| {
            let left = s.spawn(|| captured("test.left"));
            let right = s.spawn(|| captured("test.right"));
            (left.join().unwrap(), right.join().unwrap())
        });
        assert_eq!(left.spans.len(), 3);
        assert!(left.spans.iter().all(|r| r.name == "test.left"));
        assert_eq!(right.spans.len(), 3);
        assert!(right.spans.iter().all(|r| r.name == "test.right"));
    }

    #[test]
    fn spawned_threads_do_not_inherit_a_capture() {
        let ((), captured) = capture(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _s = span("test.unpropagated");
                });
            });
        });
        assert!(captured.spans.is_empty());
    }
}
